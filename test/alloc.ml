(* Allocation probes for the tests that pin a hot loop as
   allocation-free. *)

(* [minor_words f] is the number of words [f ()] allocates on the minor
   heap.  [Gc.minor_words] returns an unboxed float and [before] stays
   unboxed across the call, so the probe itself allocates nothing: an
   empty thunk measures 0. *)
let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before
