(* Dedicated market battery: grid regression cases for the price-grid
   off-by-one, determinism over every result field, structural
   invariants, and a population-scale stability property.

   (test_econ.ml keeps the economic-shape tests — Salop benchmark,
   lock-in raises markup, etc.; this file owns the mechanics.) *)

module Rng = Tussle_prelude.Rng
module Market = Tussle_econ.Market

let check_float = Alcotest.(check (float 1e-9))

let run ?(seed = 42) cfg = Market.run (Rng.create seed) cfg

(* ---------- price grid ---------- *)

(* Regression: (ceiling - floor) / step truncated to 99 for the default
   10.0 / 0.1 span, so the ceiling was never on the grid and a
   monopolist could not post it. *)
let test_grid_reaches_ceiling_step_01 () =
  let grid = Market.price_grid Market.default_config in
  Alcotest.(check int) "101 points" 101 (Array.length grid);
  check_float "first is floor" Market.default_config.Market.price_floor grid.(0);
  check_float "last is ceiling exactly"
    Market.default_config.Market.price_ceiling
    grid.(Array.length grid - 1)

let test_grid_reaches_ceiling_step_03 () =
  (* 0.3 does not divide 10: the final interval is shorter than the
     step, but the ceiling must still be the last point *)
  let cfg = { Market.default_config with Market.price_step = 0.3 } in
  let grid = Market.price_grid cfg in
  let g = Array.length grid in
  check_float "last is ceiling exactly" cfg.Market.price_ceiling grid.(g - 1);
  Alcotest.(check bool) "penultimate below ceiling" true
    (grid.(g - 2) < cfg.Market.price_ceiling)

let test_grid_sorted_and_bounded () =
  List.iter
    (fun step ->
      let cfg = { Market.default_config with Market.price_step = step } in
      let grid = Market.price_grid cfg in
      Array.iteri
        (fun i p ->
          Alcotest.(check bool) "within bounds" true
            (p >= cfg.Market.price_floor && p <= cfg.Market.price_ceiling);
          if i > 0 then
            Alcotest.(check bool) "strictly increasing" true (p > grid.(i - 1)))
        grid)
    [ 0.1; 0.3; 0.25; 1.0; 3.0 ]

let test_degenerate_grid () =
  (* floor = ceiling is a legal one-point grid *)
  let cfg =
    { Market.default_config with Market.price_floor = 2.0; price_ceiling = 2.0 }
  in
  let grid = Market.price_grid cfg in
  Alcotest.(check int) "one point" 1 (Array.length grid);
  check_float "the point" 2.0 grid.(0)

(* Regression: with the ceiling off-grid, a monopolist facing slack WTP
   capped out one step below the ceiling. *)
let test_monopoly_reaches_ceiling () =
  let cfg =
    {
      Market.default_config with
      Market.n_providers = 1;
      Market.wtp = 20.0 (* slack: ceiling-priced service still worth it *);
    }
  in
  let r = run cfg in
  check_float "monopoly posts the ceiling" cfg.Market.price_ceiling
    r.Market.mean_price;
  Alcotest.(check bool) "everyone still subscribes" true
    (r.Market.subscribed_ratio > 0.99)

let test_monopoly_price_on_grid () =
  (* with one provider, mean_price is that provider's posted price and
     must be a grid member (the snapped-anchor / best-response
     invariant observed from outside) *)
  let cfg = { Market.default_config with Market.n_providers = 1 } in
  let grid = Market.price_grid cfg in
  let r = run cfg in
  Alcotest.(check bool) "posted price is a grid member" true
    (Array.exists (fun p -> p = r.Market.mean_price) grid)

(* ---------- determinism ---------- *)

let test_deterministic_all_fields () =
  let cfg = { Market.default_config with Market.switching_cost = 1.0 } in
  let a = run ~seed:7 cfg and b = run ~seed:7 cfg in
  check_float "mean_price" a.Market.mean_price b.Market.mean_price;
  check_float "mean_markup" a.Market.mean_markup b.Market.mean_markup;
  check_float "churn_rate" a.Market.churn_rate b.Market.churn_rate;
  check_float "consumer_surplus" a.Market.consumer_surplus
    b.Market.consumer_surplus;
  check_float "provider_profit" a.Market.provider_profit b.Market.provider_profit;
  check_float "hhi" a.Market.hhi b.Market.hhi;
  check_float "subscribed_ratio" a.Market.subscribed_ratio
    b.Market.subscribed_ratio;
  Alcotest.(check (array (float 1e-9)))
    "price_history" a.Market.price_history b.Market.price_history

(* ---------- invariants ---------- *)

let check_invariants cfg r =
  Alcotest.(check bool) "subscribed_ratio in [0,1]" true
    (r.Market.subscribed_ratio >= 0.0 && r.Market.subscribed_ratio <= 1.0);
  Alcotest.(check bool) "hhi in [0,1]" true
    (r.Market.hhi >= 0.0 && r.Market.hhi <= 1.0);
  Alcotest.(check bool) "churn_rate in [0,1]" true
    (r.Market.churn_rate >= 0.0 && r.Market.churn_rate <= 1.0);
  Alcotest.(check bool) "mean price within grid bounds" true
    (r.Market.mean_price >= cfg.Market.price_floor
    && r.Market.mean_price <= cfg.Market.price_ceiling);
  Array.iter
    (fun p ->
      Alcotest.(check bool) "history within grid bounds" true
        (p >= cfg.Market.price_floor && p <= cfg.Market.price_ceiling))
    r.Market.price_history;
  Alcotest.(check int) "history length" cfg.Market.periods
    (Array.length r.Market.price_history)

let test_invariants_across_configs () =
  List.iter
    (fun cfg -> check_invariants cfg (run cfg))
    [
      Market.default_config;
      { Market.default_config with Market.n_providers = 1 };
      { Market.default_config with Market.n_providers = 16 };
      { Market.default_config with Market.switching_cost = 3.0 };
      { Market.default_config with Market.wtp = 0.5 (* most stay out *) };
      { Market.default_config with Market.price_step = 0.3 };
    ]

let test_prohibitive_switching_cost_freezes_churn () =
  (* switching can never pay when it costs more than the whole utility
     on offer: churn must be exactly zero *)
  let cfg =
    { Market.default_config with Market.switching_cost = 100.0 }
  in
  let r = run cfg in
  check_float "zero churn" 0.0 r.Market.churn_rate

(* ---------- population-scale stability (qcheck) ---------- *)

(* The SoA rewrite exists to run the same economics at 100x the
   population: the equilibrium price must be a property of the
   configuration, not of the sample size.  10x the consumers, same
   seed family: the time-averaged price over the last third moves by at
   most a few grid steps (finite-sample demand noise).  The comparison
   averages the tail of [price_history] rather than the final-period
   snapshot because moderate switching costs produce Edgeworth price
   cycles whose *phase* at the horizon depends on the sample — the
   cycle's level is population-stable, the snapshot is not.  Large
   switching costs (around the transport cost and up) change the
   economics itself with population (lock-in territory width), so the
   property quantifies over the competitive-to-moderate range. *)
let prop_population_scale_stable =
  QCheck2.Test.make ~count:15 ~name:"10x consumers: mean price stable"
    QCheck2.Gen.(
      pair (int_range 1 1000) (int_range 0 3 (* switching cost in tenths *)))
    (fun (seed, sc10) ->
      let sc = float_of_int sc10 /. 10.0 in
      let cfg n =
        {
          Market.default_config with
          Market.n_consumers = n;
          Market.switching_cost = sc;
        }
      in
      let tail_mean r =
        let h = r.Market.price_history in
        let n = Array.length h in
        let k = 10 in
        let s = ref 0.0 in
        for i = n - k to n - 1 do
          s := !s +. h.(i)
        done;
        !s /. float_of_int k
      in
      let small = Market.run (Rng.create seed) (cfg 400) in
      let large = Market.run (Rng.create seed) (cfg 4000) in
      Float.abs (tail_mean small -. tail_mean large) <= 0.5)

(* ---------- allocation ---------- *)

(* The period loop allocates nothing: doubling [periods] adds only the
   returned price history's one word per period.  At switching cost 1
   six providers keep moving their prices, so no period is replayed by
   the steady-state shortcut and each one runs the whole loop. *)
let test_period_loop_allocation_free () =
  let cfg periods =
    {
      Market.default_config with
      n_consumers = 20_000;
      n_providers = 6;
      switching_cost = 1.0;
      periods;
    }
  in
  let h = (run ~seed:1 (cfg 60)).Market.price_history in
  Alcotest.(check bool) "prices still move after period 30" true
    (Array.exists (fun p -> p <> h.(30)) (Array.sub h 31 29));
  let words periods =
    Alloc.minor_words (fun () ->
        ignore (Sys.opaque_identity (run ~seed:1 (cfg periods))))
    -. float_of_int periods
  in
  Alcotest.(check (float 0.0)) "minor words beyond the price history"
    (words 30) (words 60)

let () =
  Alcotest.run "market"
    [
      ( "grid",
        [
          Alcotest.test_case "ceiling on grid, step 0.1" `Quick
            test_grid_reaches_ceiling_step_01;
          Alcotest.test_case "ceiling on grid, step 0.3" `Quick
            test_grid_reaches_ceiling_step_03;
          Alcotest.test_case "sorted and bounded" `Quick
            test_grid_sorted_and_bounded;
          Alcotest.test_case "degenerate one-point grid" `Quick
            test_degenerate_grid;
          Alcotest.test_case "monopoly reaches ceiling" `Quick
            test_monopoly_reaches_ceiling;
          Alcotest.test_case "monopoly price on grid" `Quick
            test_monopoly_price_on_grid;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "all result fields" `Quick
            test_deterministic_all_fields;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "across configs" `Quick test_invariants_across_configs;
          Alcotest.test_case "prohibitive switching cost: zero churn" `Quick
            test_prohibitive_switching_cost_freezes_churn;
        ] );
      ( "scale",
        [ QCheck_alcotest.to_alcotest prop_population_scale_stable ] );
      ( "allocation",
        [
          Alcotest.test_case "period loop allocation-free" `Quick
            test_period_loop_allocation_free;
        ] );
    ]
