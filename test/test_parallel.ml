(* Tests for the domain-pool experiment runner: Pool.map ordering and
   fault behaviour, registry fault isolation, and byte-identical
   sequential vs. parallel batteries. *)

module Pool = Tussle_prelude.Pool
module Experiment = Tussle_experiments.Experiment
module Registry = Tussle_experiments.Registry

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec search i =
    i + m <= n && (String.sub haystack i m = needle || search (i + 1))
  in
  search 0

(* ---------- Pool ---------- *)

let test_pool_order () =
  let xs = List.init 100 Fun.id in
  let expected = List.map (fun x -> x * x) xs in
  List.iter
    (fun domains ->
      Alcotest.(check (list int))
        (Printf.sprintf "order preserved with %d domains" domains)
        expected
        (Pool.map ~domains (fun x -> x * x) xs))
    [ 1; 2; 4; 7 ]

let test_pool_edge_cases () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~domains:4 succ []);
  Alcotest.(check (list int)) "singleton" [ 2 ] (Pool.map ~domains:4 succ [ 1 ]);
  Alcotest.(check (list int)) "more domains than items" [ 2; 3 ]
    (Pool.map ~domains:16 succ [ 1; 2 ]);
  Alcotest.check_raises "zero domains"
    (Invalid_argument "Pool.map: domains must be >= 1") (fun () ->
      ignore (Pool.map ~domains:0 succ [ 1 ]))

let test_pool_default_domains () =
  let d = Pool.default_domains () in
  Alcotest.(check bool) "within [1,8]" true (d >= 1 && d <= 8)

let test_domains_of_string () =
  (* Backs the CLI's --domains flag: garbage must produce an error (the
     CLI exits 2), never a silent fall-through to the default domain
     count. *)
  let ok s expected =
    match Pool.domains_of_string s with
    | Ok d -> Alcotest.(check int) (Printf.sprintf "parse %S" s) expected d
    | Error msg -> Alcotest.failf "rejected %S: %s" s msg
  in
  let rejected s =
    match Pool.domains_of_string s with
    | Error _ -> ()
    | Ok d -> Alcotest.failf "accepted %S as %d" s d
  in
  ok "1" 1;
  ok "4" 4;
  ok " 8 " 8;
  List.iter rejected [ "nope"; ""; "0"; "-3"; "4.5"; "2x"; "⑂" ]

let test_pool_exception_first () =
  (* all items still run; the earliest failing input's exception wins *)
  let f x = if x mod 10 = 0 then failwith (string_of_int x) else x in
  Alcotest.check_raises "earliest failure wins" (Failure "10") (fun () ->
      ignore (Pool.map ~domains:4 f (List.init 35 (fun i -> i + 1))))

(* ---------- registry fault isolation ---------- *)

let boom =
  {
    Experiment.id = "EX";
    title = "deliberately raising (fault-isolation test)";
    paper_claim = "a broken experiment must not abort the battery";
    run = (fun () -> failwith "kaboom");
    sweep = None;
  }

let fast id =
  match Registry.find id with
  | Some e -> e
  | None -> Alcotest.failf "missing %s" id

let test_failed_isolated () =
  let batch = [ fast "E4"; boom; fast "E23" ] in
  List.iter
    (fun domains ->
      match Registry.run_list ~domains batch with
      | [ a; b; c ] ->
        Alcotest.(check bool) "first held" true (Experiment.held a);
        Alcotest.(check bool) "third held" true (Experiment.held c);
        (match b.Experiment.status with
        | Experiment.Failed msg ->
          Alcotest.(check bool) "exception message kept" true
            (contains msg "kaboom")
        | Experiment.Held | Experiment.Violated ->
          Alcotest.fail "expected Failed status");
        Alcotest.(check bool) "failure rendered" true
          (contains b.Experiment.output "FAILED (uncaught:")
      | _ -> Alcotest.fail "expected three outcomes")
    [ 1; 3 ]

(* ---------- determinism across domain counts ---------- *)

let test_parallel_battery_identical () =
  (* cheap subset of the battery; `tussle experiments` runs all 30 *)
  let batch =
    List.map fast [ "E4"; "E6"; "E7"; "E8"; "E19"; "E23"; "E25"; "E26" ]
  in
  let render outcomes =
    String.concat "\n" (List.map (fun o -> o.Experiment.output) outcomes)
  in
  let sequential = render (Registry.run_list ~domains:1 batch) in
  let parallel = render (Registry.run_list ~domains:4 batch) in
  Alcotest.(check string) "byte-identical output" sequential parallel

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "order preserved" `Quick test_pool_order;
          Alcotest.test_case "edge cases" `Quick test_pool_edge_cases;
          Alcotest.test_case "default domains" `Quick test_pool_default_domains;
          Alcotest.test_case "domains flag parsing" `Quick
            test_domains_of_string;
          Alcotest.test_case "first exception wins" `Quick
            test_pool_exception_first;
        ] );
      ( "registry",
        [
          Alcotest.test_case "failed experiment isolated" `Slow
            test_failed_isolated;
          Alcotest.test_case "seq/parallel byte-identical" `Slow
            test_parallel_battery_identical;
        ] );
    ]
