(* SplitMix64.  Reference: Steele, Lea & Flood, "Fast Splittable
   Pseudorandom Number Generators", OOPSLA 2014. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix64 (Int64.of_int seed) }

let index_seed ~seed index = seed + (7919 * (index + 1))

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = int64 t }

let copy t = { state = t.state }

let bits t = Int64.to_int (Int64.shift_right_logical (int64 t) 2)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let rec draw () =
    let r = bits t in
    let v = r mod n in
    if r - v > max_int - n + 1 then draw () else v
  in
  draw ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t x =
  (* 53 random bits mapped to [0,1). *)
  let r = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  x *. (r /. 9007199254740992.0)

let uniform t lo hi = lo +. float t (hi -. lo)

let bool t = Int64.logand (int64 t) 1L = 1L

let bernoulli t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let gaussian t ~mu ~sigma =
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  (* Bind u1 before u2: [let _ and _] has unspecified evaluation order,
     which made the draw sequence compiler-dependent. *)
  let u1 = nonzero () in
  let u2 = float t 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  -.log (nonzero ()) /. rate

let pareto t ~alpha ~x_min =
  if alpha <= 0.0 || x_min <= 0.0 then
    invalid_arg "Rng.pareto: parameters must be positive";
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  x_min /. (nonzero () ** (1.0 /. alpha))

let choice t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choice: empty array";
  arr.(int t (Array.length arr))

let choice_list t l =
  match l with
  | [] -> invalid_arg "Rng.choice_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let weighted_index t w =
  let n = Array.length w in
  if n = 0 then invalid_arg "Rng.weighted_index: empty weights";
  let total = Array.fold_left (fun acc x ->
    if x < 0.0 then invalid_arg "Rng.weighted_index: negative weight"
    else acc +. x) 0.0 w
  in
  if total <= 0.0 then invalid_arg "Rng.weighted_index: zero total weight";
  let target = float t total in
  (* [last_pos] is the most recent positive-weight index: if float
     rounding makes the running sum fall short of [target] even at the
     end, we return it rather than defaulting to a possibly zero-weight
     [n - 1]; a zero-weight index is never returned. *)
  let rec scan i acc last_pos =
    if i = n then last_pos
    else
      let acc = acc +. w.(i) in
      let last_pos = if w.(i) > 0.0 then i else last_pos in
      if target < acc then last_pos else scan (i + 1) acc last_pos
  in
  scan 0 0.0 (-1)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let shuffle_list t l =
  let arr = Array.of_list l in
  shuffle t arr;
  Array.to_list arr

let sample t k arr =
  let n = Array.length arr in
  if k < 0 || k > n then invalid_arg "Rng.sample: k out of range";
  let pool = Array.copy arr in
  (* Partial Fisher-Yates: the first k slots end up uniformly sampled. *)
  for i = 0 to k - 1 do
    let j = i + int t (n - i) in
    let tmp = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- tmp
  done;
  Array.sub pool 0 k
