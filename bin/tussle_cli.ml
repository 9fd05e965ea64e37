(* The tussle command-line interface: the repository's only entry
   point (bench/main.exe runs just the microbenchmarks).

   Subcommands:
     experiments [-e ID]   regenerate the paper's experiments
     chaos                 seeded random fault plans vs. the invariants
     sweep                 statistical verdicts across seeds (t-tests + CIs)
     search                adversarial search over fault-plan space
     explain PLAN-FILE     replay a reproducer and narrate every drop
     trends REPORT         append to the benchmark history, diff vs baseline
     report FILE           validate and summarize a battery or sweep report
     perfgate BASE REPORT  fail on wall/alloc regressions vs. a baseline
     scenario              run the actor/mechanism tussle engine
     market                run the access-provider market model
     policy FILE REQUEST   evaluate a policy compliance query *)

open Cmdliner
module Obs_metrics = Tussle_obs.Metrics
module Obs_trace = Tussle_obs.Trace
module Obs_report = Tussle_obs.Report
module Obs_sweep_report = Tussle_obs.Sweep_report
module Obs_search_report = Tussle_obs.Search_report
module Obs_json = Tussle_obs.Json

(* ---------- shared flags ---------- *)

(* Every numeric flag parses through one of these converters, so a bad
   value is a cmdliner parse error that names the option and the value
   (exit 2, see the bottom of this file) and no command re-validates
   its flags by hand. *)
module Conv = struct
  let number of_string pp ~expected ok =
    let parse s =
      match of_string (String.trim s) with
      | Some v when ok v -> Ok v
      | Some _ | None ->
        Error (Printf.sprintf "invalid value %S (expected %s)" s expected)
    in
    Arg.conv' (parse, pp)

  let int = number int_of_string_opt Format.pp_print_int
  let float = number float_of_string_opt Format.pp_print_float

  let seed = int ~expected:"an integer" (fun _ -> true)

  let at_least k =
    int ~expected:(Printf.sprintf "an integer >= %d" k) (fun n -> n >= k)

  let non_negative =
    float ~expected:"a non-negative number" (fun x ->
        x >= 0.0 && Float.is_finite x)

  let seconds =
    float ~expected:"a positive number of seconds" (fun t ->
        t > 0.0 && Float.is_finite t)

  let alpha =
    float ~expected:"a number strictly between 0 and 1" (fun a ->
        a > 0.0 && a < 1.0)

  let domains =
    Arg.conv' (Tussle_prelude.Pool.domains_of_string, Format.pp_print_int)
end

(* --domains N / --seq, as the optional domain count the runners take *)
let domains =
  let domains =
    let doc =
      "Number of worker domains (default: the recommended domain count).  \
       Output is byte-identical for any value."
    in
    Arg.(value & opt (some Conv.domains) None
         & info [ "domains" ] ~doc ~docv:"N")
  in
  let seq =
    let doc = "Run strictly sequentially (same as --domains 1)." in
    Arg.(value & flag & info [ "seq" ] ~doc)
  in
  Term.(const (fun domains seq -> if seq then Some 1 else domains)
        $ domains $ seq)

let timeout_s =
  let doc =
    "Arm the watchdog: an experiment (or a sweep replicate) still running \
     after $(docv) seconds fails with a timeout while the rest of the run \
     carries on.  Off by default."
  in
  Arg.(value & opt (some Conv.seconds) None
       & info [ "timeout-s" ] ~doc ~docv:"SECONDS")

(* Exit codes every subcommand shares; cmdliner's own parse errors are
   mapped onto 2 at the bottom of this file. *)
let exits =
  Cmd.Exit.
    [
      info 0 ~doc:"on success.";
      info 1
        ~doc:"on a negative outcome: a failed shape check, invariant, \
              verdict or gate, or a denied policy request.";
      info 2
        ~doc:"on a usage error: an unknown option, a bad flag value, or a \
              missing, unreadable or invalid input file.";
      info internal_error ~doc:"on an uncaught exception.";
    ]

let cmd name ~doc term = Cmd.v (Cmd.info name ~doc ~exits) term

(* ---------- experiments ---------- *)

let experiments_cmd =
  let id =
    let doc = "Run a single experiment (E1..E30)." in
    Arg.(value & opt (some string) None & info [ "e"; "experiment" ] ~doc)
  in
  let metrics =
    let doc = "Collect telemetry and print the metrics table after the run." in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let trace =
    let doc = "Record spans and write Chrome trace-event JSON to $(docv) \
               (open in chrome://tracing or Perfetto)." in
    Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")
  in
  let report =
    let doc = "Write the machine-readable battery report JSON to $(docv) and \
               print its summary table." in
    Arg.(value & opt (some string) None & info [ "report" ] ~doc ~docv:"FILE")
  in
  let fault_seed =
    let doc =
      "Seed for the fault-injection substrate (experiments that inject \
       faults, e.g. E28, derive their plans from it).  Same seed, same \
       battery output, byte for byte; default 1031."
    in
    Arg.(value & opt (some Conv.seed) None
         & info [ "fault-seed" ] ~doc ~docv:"SEED")
  in
  let run id domains metrics trace report timeout_s fault_seed =
    Option.iter Tussle_fault.Seed.set fault_seed;
    if metrics || report <> None then Obs_metrics.enable ();
    if trace <> None then Obs_trace.enable ();
    let emit_report ~wall_s outcomes =
      match report with
      | None -> ()
      | Some file ->
        let domains =
          match domains with
          | Some d -> d
          | None -> Tussle_prelude.Pool.default_domains ()
        in
        let r = Tussle_experiments.Registry.report ~domains ~wall_s outcomes in
        (try Obs_report.write file r
         with Sys_error msg ->
           prerr_endline ("experiments: --report: " ^ msg);
           exit 2);
        print_newline ();
        print_string (Obs_report.summary r)
    in
    let finish code =
      (match trace with Some f -> Obs_trace.write_chrome f | None -> ());
      if metrics then begin
        print_newline ();
        print_string (Obs_metrics.render (Obs_metrics.snapshot ()))
      end;
      code
    in
    match id with
    | None ->
      let ok, outcomes, wall_s =
        Tussle_experiments.Registry.run_battery ?domains ?timeout_s ()
      in
      emit_report ~wall_s outcomes;
      finish (if ok then 0 else 1)
    | Some id -> begin
      match Tussle_experiments.Registry.run_one ?timeout_s id with
      | Ok o ->
        emit_report ~wall_s:o.Tussle_experiments.Experiment.wall_s [ o ];
        finish (if Tussle_experiments.Experiment.held o then 0 else 1)
      | Error msg ->
        prerr_endline msg;
        2
    end
  in
  let doc = "regenerate the paper's experiments (E1..E30)" in
  cmd "experiments" ~doc
    Term.(const run $ id $ domains $ metrics $ trace $ report $ timeout_s
          $ fault_seed)

(* ---------- chaos ---------- *)

let chaos_cmd =
  let seed =
    let doc =
      "Master seed for the chaos sweep.  Same seed, same plans, same \
       output, byte for byte, for any --domains count."
    in
    Arg.(value & opt Conv.seed Tussle_fault.Seed.default
         & info [ "chaos-seed" ] ~doc ~docv:"SEED")
  in
  let runs =
    let doc = "Number of random fault plans to run." in
    Arg.(value & opt (Conv.at_least 1) 200
         & info [ "chaos-runs" ] ~doc ~docv:"N")
  in
  let corpus =
    let doc =
      "Persist the shrunk reproducer of every invariant violation under \
       $(docv) (created if missing)."
    in
    Arg.(value & opt (some string) None & info [ "corpus" ] ~doc ~docv:"DIR")
  in
  let replay =
    let doc =
      "Instead of sweeping, replay every *.plan reproducer under $(docv) \
       and re-check all invariants."
    in
    Arg.(value & opt (some string) None & info [ "replay" ] ~doc ~docv:"DIR")
  in
  let run seed runs domains corpus replay =
    let module Sweep = Tussle_chaos.Sweep in
    let module Invariant = Tussle_chaos.Invariant in
    let module Corpus = Tussle_chaos.Corpus in
    match replay with
    | Some dir -> (
      (* reject entries naming a scenario we don't have with a clean
         LOAD ERROR line instead of letting them raise downstream *)
      let known =
        List.map
          (fun (s : Tussle_chaos.Scenario.t) -> s.Tussle_chaos.Scenario.name)
          Tussle_chaos.Scenario.all
      in
      let entries = Corpus.load_dir ~known dir in
      Printf.printf "chaos replay: %d corpus entr%s under %s\n"
        (List.length entries)
        (if List.length entries = 1 then "y" else "ies")
        dir;
      let bad = ref 0 in
      List.iter
        (fun (path, entry) ->
          match entry with
          | Error msg ->
            incr bad;
            Printf.printf "  %s: LOAD ERROR %s\n" (Filename.basename path) msg
          | Ok e -> (
            match Sweep.replay e with
            | Error msg ->
              incr bad;
              Printf.printf "  %s: %s\n" (Filename.basename path) msg
            | Ok [] ->
              Printf.printf "  %s: ok (%s, seed %d, %d episode%s)\n"
                (Filename.basename path) e.Corpus.scenario e.Corpus.seed
                (List.length e.Corpus.plan)
                (if List.length e.Corpus.plan = 1 then "" else "s")
            | Ok violations ->
              incr bad;
              Printf.printf "  %s: VIOLATION\n" (Filename.basename path);
              List.iter
                (fun v ->
                  Printf.printf "    %s\n" (Invariant.violation_string v))
                violations))
        entries;
      if !bad = 0 then begin
        Printf.printf "chaos replay: all clean\n";
        0
      end
      else begin
        Printf.printf "chaos replay: %d failing entr%s\n" !bad
          (if !bad = 1 then "y" else "ies");
        1
      end)
    | None ->
      let results = Sweep.run_sweep ?domains ~seed ~runs () in
      let failures = Sweep.failures results in
      Printf.printf
        "chaos sweep: %d runs from seed %d over %s; invariants: %s\n" runs
        seed
        (String.concat ", "
           (List.map
              (fun (s : Tussle_chaos.Scenario.t) -> s.Tussle_chaos.Scenario.name)
              Tussle_chaos.Scenario.all))
        (String.concat ", " Invariant.names);
      List.iter
        (fun (r : Sweep.run) ->
          Printf.printf "run %04d %s seed=%d episodes=%d: VIOLATION\n"
            r.Sweep.index r.Sweep.scenario r.Sweep.seed r.Sweep.episodes;
          List.iter
            (fun v -> Printf.printf "  %s\n" (Invariant.violation_string v))
            r.Sweep.violations;
          let minimal = Sweep.shrink_run r in
          Printf.printf "  shrunk %d -> %d episode%s:\n"
            (List.length r.Sweep.plan) (List.length minimal)
            (if List.length minimal = 1 then "" else "s");
          String.split_on_char '\n' (Tussle_fault.Plan.to_string minimal)
          |> List.iter (fun line ->
                 if line <> "" then Printf.printf "    %s\n" line);
          let entry =
            {
              Corpus.scenario = r.Sweep.scenario;
              seed = r.Sweep.seed;
              plan = minimal;
            }
          in
          (* replay the shrunk reproducer with the flight recorder on
             and attach the offending flows' causal records to each
             violation *)
          let attachment =
            match Tussle_chaos.Explain.run entry with
            | Error msg -> Printf.sprintf "  explain: %s\n" msg
            | Ok er ->
              String.concat ""
                (List.map
                   (fun v ->
                     Tussle_chaos.Explain.narrative_of_violation ~entry
                       ~events:er.Tussle_chaos.Explain.events v)
                   (if er.Tussle_chaos.Explain.violations = [] then
                      r.Sweep.violations
                    else er.Tussle_chaos.Explain.violations))
          in
          String.split_on_char '\n' attachment
          |> List.iter (fun line ->
                 if line <> "" then Printf.printf "  %s\n" line);
          match corpus with
          | None -> ()
          | Some dir ->
            let path = Corpus.save ~dir entry in
            Printf.printf "  saved %s\n" path;
            let explain_path =
              Filename.remove_extension path ^ ".explain.txt"
            in
            let oc = open_out explain_path in
            output_string oc attachment;
            close_out oc;
            Printf.printf "  saved %s\n" explain_path)
        failures;
      let n_fail = List.length failures in
      Printf.printf "chaos sweep: %d/%d runs clean, %d violation%s\n"
        (runs - n_fail) runs n_fail
        (if n_fail = 1 then "" else "s");
      if n_fail = 0 then 0 else 1
  in
  let doc =
    "run seeded random fault plans against the scenario checkers and \
     validate every simulation invariant (see also --replay)"
  in
  cmd "chaos" ~doc Term.(const run $ seed $ runs $ domains $ corpus $ replay)

(* ---------- explain ---------- *)

let explain_cmd =
  (* Plain string positional for the clean-error/exit-2 convention. *)
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"PLAN-FILE"
             ~doc:"Corpus reproducer (scenario/seed header + fault plan) \
                   to replay with the flight recorder on.")
  in
  let json_out =
    let doc = "Also write the tussle.flow-trace/1 JSON artifact to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"FILE")
  in
  let run file json_out =
    let module Corpus = Tussle_chaos.Corpus in
    let module Explain = Tussle_chaos.Explain in
    match Corpus.load file with
    | Error msg ->
      Printf.eprintf "explain: %s\n" msg;
      2
    | Ok entry -> (
      match Explain.run entry with
      | Error msg ->
        Printf.eprintf "explain: %s\n" msg;
        2
      | Ok r ->
        print_string r.Explain.narrative;
        (match json_out with
        | None -> ()
        | Some out ->
          (try Obs_json.to_file out (Explain.to_json r)
           with Sys_error msg ->
             Printf.eprintf "explain: --json: %s\n" msg;
             exit 2);
          Printf.printf "flow trace written to %s (%d events)\n" out
            (List.length r.Explain.events));
        if r.Explain.violations = [] then 0 else 1)
  in
  let doc =
    "replay a chaos corpus reproducer with the flow-level flight recorder \
     on and print a causal narrative: every drop attributed to the fault \
     episode that explains it, plus the control-plane timeline"
  in
  cmd "explain" ~doc Term.(const run $ file $ json_out)

(* ---------- trends ---------- *)

(* Read, parse and validate a battery report (trends and perfgate);
   [Error] is the one-line message printed before exiting 2. *)
let load_battery_report file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> (
    match Obs_json.parse contents with
    | Error msg -> Error (Printf.sprintf "%s: %s" file msg)
    | Ok json -> (
      match Obs_report.validate json with
      | Error msg ->
        Error (Printf.sprintf "%s: invalid battery report: %s" file msg)
      | Ok () -> Ok json))

(* (id, wall_s, allocated_bytes) of every experiment in a battery report *)
let experiments json =
  match Option.bind (Obs_json.member "experiments" json) Obs_json.to_list with
  | None -> []
  | Some entries ->
    List.filter_map
      (fun e ->
        let str name = Option.bind (Obs_json.member name e) Obs_json.to_str in
        let fl name = Option.bind (Obs_json.member name e) Obs_json.to_float in
        match (str "id", fl "wall_s", fl "allocated_bytes") with
        | Some id, Some w, Some a -> Some (id, w, a)
        | _ -> None)
      entries

let trends_cmd =
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"REPORT"
             ~doc:"Fresh battery report JSON to append to the history.")
  in
  let history =
    let doc = "Benchmark history file, one JSON line per appended report." in
    Arg.(value & opt string "BENCH_history.jsonl"
         & info [ "history" ] ~doc ~docv:"FILE")
  in
  let baseline =
    let doc = "Battery report to diff the fresh report against (wall clock \
               and GC allocation per experiment)." in
    Arg.(value & opt (some string) None & info [ "baseline" ] ~doc ~docv:"FILE")
  in
  let run file history baseline =
    match load_battery_report file with
    | Error msg ->
      prerr_endline ("trends: " ^ msg);
      2
    | Ok json -> (
      let top name conv = Option.bind (Obs_json.member name json) conv in
      let exps = experiments json in
      let line =
        Obs_json.Obj
          [
            ("schema", Obs_json.Str "tussle.bench-history/1");
            ( "label",
              Obs_json.Str (Option.value ~default:"?" (top "label" Obs_json.to_str)) );
            ( "generated_at",
              Obs_json.Float
                (Option.value ~default:0.0 (top "generated_at" Obs_json.to_float)) );
            ( "domains",
              Obs_json.Int (Option.value ~default:0 (top "domains" Obs_json.to_int)) );
            ( "wall_s",
              Obs_json.Float
                (Option.value ~default:0.0 (top "wall_s" Obs_json.to_float)) );
            ( "experiments",
              Obs_json.List
                (List.map
                   (fun (id, w, a) ->
                     Obs_json.Obj
                       [
                         ("id", Obs_json.Str id);
                         ("wall_s", Obs_json.Float w);
                         ("allocated_bytes", Obs_json.Float a);
                       ])
                   exps) );
          ]
      in
      match
        let oc = open_out_gen [ Open_append; Open_creat ] 0o644 history in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc (Obs_json.to_string ~minify:true line);
            output_char oc '\n')
      with
      | exception Sys_error msg ->
        prerr_endline ("trends: --history: " ^ msg);
        2
      | () -> (
        (* round-trip the whole history: every line must still parse *)
        let reread = In_channel.with_open_bin history In_channel.input_all in
        let lines =
          String.split_on_char '\n' reread
          |> List.filter (fun l -> String.trim l <> "")
        in
        let bad = ref [] in
        List.iteri
          (fun i l ->
            match Obs_json.parse l with
            | Error msg -> bad := (i + 1, msg) :: !bad
            | Ok j ->
              if
                Option.bind (Obs_json.member "schema" j) Obs_json.to_str
                <> Some "tussle.bench-history/1"
              then bad := (i + 1, "missing bench-history schema tag") :: !bad)
          lines;
        match List.rev !bad with
        | (lineno, msg) :: _ ->
          Printf.eprintf "trends: %s:%d: %s\n" history lineno msg;
          2
        | [] ->
          Printf.printf "trends: appended %s to %s (%d entr%s)\n" file history
            (List.length lines)
            (if List.length lines = 1 then "y" else "ies");
          (match baseline with
          | None -> 0
          | Some bfile -> (
            match load_battery_report bfile with
            | Error msg ->
              prerr_endline ("trends: --baseline: " ^ msg);
              2
            | Ok bjson ->
              let base = experiments bjson in
              let delta b c = if b > 0.0 then 100.0 *. (c -. b) /. b else 0.0 in
              Printf.printf "%-5s %12s %12s %8s %12s %12s %8s\n" "id"
                "wall_base" "wall_now" "d%" "alloc_base" "alloc_now" "d%";
              List.iter
                (fun (id, w, a) ->
                  match
                    List.find_opt (fun (bid, _, _) -> bid = id) base
                  with
                  | None ->
                    Printf.printf "%-5s %12s %12.3f %8s %12s %12.1f %8s\n" id
                      "-" w "new" "-" (a /. 1.048576e6) "new"
                  | Some (_, bw, ba) ->
                    Printf.printf
                      "%-5s %11.3fs %11.3fs %+7.1f%% %10.1fMB %10.1fMB \
                       %+7.1f%%\n"
                      id bw w (delta bw w) (ba /. 1.048576e6)
                      (a /. 1.048576e6) (delta ba a))
                exps;
              0))))
  in
  let doc =
    "append a battery report to the benchmark history (JSONL, validated \
     round-trip) and print per-experiment wall/alloc deltas against a \
     baseline report"
  in
  cmd "trends" ~doc Term.(const run $ file $ history $ baseline)

(* ---------- report ---------- *)

let report_cmd =
  (* The positional is a plain string, not [Arg.file]: a missing path
     must produce our clean one-line error, not cmdliner's usage
     message. *)
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"REPORT-FILE" ~doc:"Battery report JSON to check.")
  in
  let run file =
    (* covers both failure surfaces: open (missing / permission) and
       read (e.g. the path is a directory) *)
    match In_channel.with_open_bin file In_channel.input_all with
    | exception Sys_error msg ->
      Printf.eprintf "report: %s\n" msg;
      2
    | contents -> (
    match Obs_json.parse contents with
    | Error msg ->
      Printf.eprintf "%s: %s\n" file msg;
      2
    | Ok json -> (
      (* dispatch on the schema tag: the same checker validates
         battery reports and sweep reports *)
      let str name = Option.bind (Obs_json.member name json) Obs_json.to_str in
      let intf path node =
        Option.bind (Obs_json.member path node) Obs_json.to_int
      in
      match str "schema" with
      | Some tag when tag = Obs_search_report.schema_tag -> (
        match Obs_search_report.validate json with
        | Error msg ->
          Printf.eprintf "%s: invalid search report: %s\n" file msg;
          2
        | Ok () ->
          Printf.printf "%s: valid %s\n" file tag;
          (match Obs_json.member "summary" json with
          | Some s ->
            Printf.printf
              "label=%s backend=%s runs=%d frontier=%d violations=%d \
               corpus_added=%d\n"
              (Option.value ~default:"?" (str "label"))
              (Option.value ~default:"?" (str "backend"))
              (Option.value ~default:0 (intf "runs" s))
              (Option.value ~default:0 (intf "frontier" s))
              (Option.value ~default:0 (intf "violations" s))
              (Option.value ~default:0 (intf "corpus_added" s))
          | None -> ());
          0)
      | Some tag when tag = Obs_sweep_report.schema_tag -> (
        match Obs_sweep_report.validate json with
        | Error msg ->
          Printf.eprintf "%s: invalid sweep report: %s\n" file msg;
          2
        | Ok () ->
          Printf.printf "%s: valid %s\n" file tag;
          (match Obs_json.member "summary" json with
          | Some s ->
            Printf.printf "label=%s experiments=%d verdicts=%d passed=%d\n"
              (Option.value ~default:"?" (str "label"))
              (Option.value ~default:0 (intf "experiments" s))
              (Option.value ~default:0 (intf "verdicts" s))
              (Option.value ~default:0 (intf "passed" s))
          | None -> ());
          0)
      | _ -> (
        match Obs_report.validate json with
        | Error msg ->
          Printf.eprintf "%s: invalid battery report: %s\n" file msg;
          2
        | Ok () ->
          let summary = Obs_json.member "summary" json in
          Printf.printf "%s: valid %s\n" file
            (Option.value ~default:"battery report" (str "schema"));
          (match summary with
          | Some s ->
            Printf.printf
              "label=%s experiments=%d held=%d violated=%d failed=%d\n"
              (Option.value ~default:"?" (str "label"))
              (Option.value ~default:0 (intf "total" s))
              (Option.value ~default:0 (intf "held" s))
              (Option.value ~default:0 (intf "violated" s))
              (Option.value ~default:0 (intf "failed" s))
          | None -> ());
          0)))
  in
  let doc = "validate and summarize a battery or sweep report JSON file" in
  cmd "report" ~doc Term.(const run $ file)

(* ---------- sweep ---------- *)

let sweep_cmd =
  let ids =
    let doc =
      "Comma-separated experiment ids to sweep (default: every experiment \
       exposing a sweep surface, currently E1, E29 and E30)."
    in
    Arg.(value & opt (some string) None & info [ "e"; "experiments" ] ~doc ~docv:"IDS")
  in
  let sweep_seed =
    let doc =
      "Master seed for the sweep.  Every run's seed derives from (seed, run \
       index) alone, so the summary and the report are byte-identical across \
       repeats and across any --domains count."
    in
    Arg.(value & opt Conv.seed 1031 & info [ "sweep-seed" ] ~doc ~docv:"SEED")
  in
  let sweep_runs =
    let doc = "Number of seeded replicates per experiment (>= 2)." in
    Arg.(value & opt (Conv.at_least 2) 100
         & info [ "sweep-runs" ] ~doc ~docv:"N")
  in
  let alpha =
    let doc =
      "Significance level: a verdict passes when its p-value is below \
       $(docv), in (0, 1)."
    in
    Arg.(value & opt Conv.alpha 0.01 & info [ "alpha" ] ~doc ~docv:"ALPHA")
  in
  let report =
    let doc = "Write the tussle.sweep-report/1 JSON artifact to $(docv)." in
    Arg.(value & opt (some string) None & info [ "report" ] ~doc ~docv:"FILE")
  in
  let run ids seed runs alpha domains timeout_s report =
    let fail flag msg =
      prerr_endline (Printf.sprintf "sweep: %s: %s" flag msg);
      2
    in
    let experiments_result =
      match ids with
      | None -> Ok (Tussle_experiments.Registry.sweepables ())
      | Some s ->
        let ids = String.split_on_char ',' s |> List.map String.trim in
        List.fold_left
          (fun acc id ->
            Result.bind acc (fun es ->
                match Tussle_experiments.Registry.find id with
                | None -> Error (Printf.sprintf "unknown experiment %S" id)
                | Some e when e.Tussle_experiments.Experiment.sweep = None ->
                  Error
                    (Printf.sprintf
                       "experiment %s has no sweep surface (no per-run \
                        metrics to test)"
                       e.Tussle_experiments.Experiment.id)
                | Some e -> Ok (es @ [ e ])))
          (Ok []) ids
    in
    match experiments_result with
    | Error msg -> fail "--experiments" msg
    | Ok experiments ->
      let sweep_report, errors =
        Tussle_sweep.Driver.run_sweep ?domains ?timeout_s ~seed ~runs ~alpha
          experiments
      in
      print_string (Obs_sweep_report.summary sweep_report);
      List.iter
        (fun e ->
          prerr_endline
            ("sweep: " ^ Tussle_sweep.Driver.error_string e))
        errors;
      let violations = Tussle_sweep.Driver.check_report sweep_report in
      List.iter
        (fun v ->
          prerr_endline
            ("sweep: report invariant violated: "
            ^ Tussle_chaos.Invariant.violation_string v))
        violations;
      (match report with
      | None -> ()
      | Some file -> (
        try
          Obs_sweep_report.write file sweep_report;
          Printf.printf "\nreport written to %s\n" file
        with Sys_error msg ->
          prerr_endline ("sweep: --report: " ^ msg);
          exit 2));
      let total, passed = Obs_sweep_report.count_verdicts sweep_report in
      if errors <> [] || violations <> [] || passed < total then 1 else 0
  in
  let doc =
    "statistical verdicts: sweep experiments across seeds and hypothesis-test \
     the claims"
  in
  cmd "sweep" ~doc
    Term.(const run $ ids $ sweep_seed $ sweep_runs $ alpha $ domains
          $ timeout_s $ report)

(* ---------- search ---------- *)

let search_cmd =
  let module Driver = Tussle_search.Driver in
  let backend =
    let doc =
      "Search backend: $(b,mutate) (coverage-guided mutation seeded from the \
       corpus) or $(b,exhaust) (bounded-exhaustive enumeration of a small \
       quantized plan grammar, certifying the box when it completes clean)."
    in
    let backends = List.map (fun b -> (b, b)) Driver.backend_names in
    Arg.(value & opt (enum backends) "mutate"
         & info [ "backend" ] ~doc ~docv:"NAME")
  in
  let budget =
    let doc = "Total number of fault plans to evaluate." in
    Arg.(value & opt (Conv.at_least 1) 200 & info [ "budget" ] ~doc ~docv:"N")
  in
  let sweep_seed =
    let doc =
      "Master seed for the search.  Every candidate derives from (seed, \
       candidate index) alone, so the summary and the report are \
       byte-identical across repeats and across any --domains count."
    in
    Arg.(value & opt Conv.seed 1031 & info [ "sweep-seed" ] ~doc ~docv:"SEED")
  in
  let corpus =
    let doc =
      "Corpus directory: seeds the mutate backend and receives every new \
       1-minimal reproducer (default chaos/corpus; pass an empty string to \
       disable seeding and persistence)."
    in
    Arg.(value & opt string "chaos/corpus" & info [ "corpus" ] ~doc ~docv:"DIR")
  in
  let report =
    let doc = "Write the tussle.search-report/1 JSON artifact to $(docv)." in
    Arg.(value & opt (some string) None & info [ "report" ] ~doc ~docv:"FILE")
  in
  let run backend budget seed domains corpus report =
    let corpus_dir = if String.trim corpus = "" then None else Some corpus in
    match Driver.run ?domains ?corpus_dir ~backend ~seed ~budget () with
    | Error msg ->
      prerr_endline ("search: --backend: " ^ msg);
      2
    | Ok (search_report, _outcome) ->
      print_string (Obs_search_report.summary search_report);
      let violations =
        Tussle_chaos.Invariant.check_search_report search_report
      in
      List.iter
        (fun v ->
          prerr_endline
            ("search: report invariant violated: "
            ^ Tussle_chaos.Invariant.violation_string v))
        violations;
      (match report with
      | None -> ()
      | Some file -> (
        try
          Obs_search_report.write file search_report;
          Printf.printf "\nreport written to %s\n" file
        with Sys_error msg ->
          prerr_endline ("search: --report: " ^ msg);
          exit 2));
      if violations <> [] || search_report.Obs_search_report.findings <> []
      then 1
      else 0
  in
  let doc =
    "adversarial search over fault-plan space: coverage-guided mutation or \
     bounded-exhaustive enumeration against the invariant registry"
  in
  cmd "search" ~doc
    Term.(const run $ backend $ budget $ sweep_seed $ domains $ corpus
          $ report)

(* ---------- perfgate ---------- *)

let perfgate_cmd =
  (* Plain strings for the same clean-error/exit-2 convention as
     [report]: missing files are our diagnostics, not cmdliner's. *)
  let baseline =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"BASELINE" ~doc:"Committed battery report to gate against.")
  in
  let candidate =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"REPORT" ~doc:"Fresh battery report to check.")
  in
  let ids =
    let doc = "Comma-separated experiment ids to gate (default E1,E3: the \
               market hot path)." in
    Arg.(value & opt string "E1,E3" & info [ "ids" ] ~doc ~docv:"IDS")
  in
  let tolerance =
    let doc = "Allowed fractional regression per metric (0.25: fail when a \
               metric exceeds baseline by more than 25%)." in
    Arg.(value & opt Conv.non_negative 0.25
         & info [ "tolerance" ] ~doc ~docv:"FRAC")
  in
  let run baseline candidate ids tol =
    (* experiment id -> (wall_s, allocated_bytes) *)
    let experiment_metrics json id =
      List.find_map
        (fun (i, w, a) -> if i = id then Some (w, a) else None)
        (experiments json)
    in
    match (load_battery_report baseline, load_battery_report candidate) with
    | Error msg, _ | _, Error msg ->
      prerr_endline ("perfgate: " ^ msg);
      2
    | Ok base_json, Ok cand_json ->
      let ids =
        String.split_on_char ',' ids
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
      in
      if ids = [] then begin
        prerr_endline "perfgate: --ids: no experiment ids given";
        2
      end
      else begin
        let missing = ref false in
        let regressed = ref false in
        Printf.printf "perfgate: %s vs %s, tolerance %.0f%%\n" candidate
          baseline (100.0 *. tol);
        List.iter
          (fun id ->
            match (experiment_metrics base_json id, experiment_metrics cand_json id) with
            | None, _ ->
              missing := true;
              Printf.printf "  %-4s MISSING in baseline\n" id
            | _, None ->
              missing := true;
              Printf.printf "  %-4s MISSING in report\n" id
            | Some (bw, ba), Some (cw, ca) ->
              let gate metric base cand fmt =
                (* a zero baseline gates nothing: any positive value
                   would be an infinite ratio *)
                let limit = base *. (1.0 +. tol) in
                let bad = base > 0.0 && cand > limit in
                if bad then regressed := true;
                Printf.printf "  %-4s %-15s %s -> %s (limit %s)%s\n" id metric
                  (fmt base) (fmt cand) (fmt limit)
                  (if bad then "  REGRESSION" else "")
              in
              gate "wall_s" bw cw (Printf.sprintf "%.3fs");
              gate "allocated_bytes" ba ca (fun b ->
                  Printf.sprintf "%.1fMB" (b /. 1.048576e6)))
          ids;
        if !missing then begin
          prerr_endline "perfgate: experiment missing from a report";
          2
        end
        else if !regressed then begin
          print_endline "perfgate: FAIL (performance regression)";
          1
        end
        else begin
          print_endline "perfgate: ok";
          0
        end
      end
  in
  let doc =
    "gate a fresh battery report against a committed baseline: fail when a \
     tracked experiment's wall clock or GC allocation regresses beyond the \
     tolerance"
  in
  cmd "perfgate" ~doc Term.(const run $ baseline $ candidate $ ids $ tolerance)

(* ---------- scenario ---------- *)

let scenario_cmd =
  let rounds =
    let doc = "Maximum number of rounds." in
    Arg.(value & opt (Conv.at_least 1) 30 & info [ "rounds" ] ~doc)
  in
  let kinds =
    let doc =
      "Actors to include (comma-separated): user, isp, government, \
       rights-holder, content-provider, private-network, designer."
    in
    Arg.(value & opt string "isp,user,government" & info [ "actors" ] ~doc)
  in
  let run rounds kinds =
    let parse_kind = function
      | "user" -> Some Tussle_core.Actor.User
      | "isp" -> Some Tussle_core.Actor.Isp
      | "government" -> Some Tussle_core.Actor.Government
      | "rights-holder" -> Some Tussle_core.Actor.Rights_holder
      | "content-provider" -> Some Tussle_core.Actor.Content_provider
      | "private-network" -> Some Tussle_core.Actor.Private_network
      | "designer" -> Some Tussle_core.Actor.Designer
      | _ -> None
    in
    let names = String.split_on_char ',' kinds in
    let actors =
      List.filter_map
        (fun name -> parse_kind (String.trim name))
        names
      |> List.mapi (fun i k ->
             Tussle_core.Actor.make ~id:i
               ~name:(Tussle_core.Actor.kind_to_string k) k)
    in
    if actors = [] then begin
      prerr_endline "no recognizable actors";
      2
    end
    else begin
      let result =
        Tussle_core.Scenario.run ~max_rounds:rounds ~actors
          ~available:Tussle_core.Mechanism.available_to ()
      in
      List.iter
        (fun r ->
          let moves =
            List.filter_map
              (fun (id, m) ->
                match m with
                | Tussle_core.Scenario.Pass -> None
                | m ->
                  Some
                    (Printf.sprintf "%d:%s" id
                       (Tussle_core.Scenario.move_to_string m)))
              r.Tussle_core.Scenario.moves
          in
          if moves <> [] then
            Printf.printf "round %2d | %s\n" r.Tussle_core.Scenario.index
              (String.concat "; " moves))
        result.Tussle_core.Scenario.rounds;
      Printf.printf "ending: %s\n"
        (Tussle_core.Scenario.ending_to_string result.Tussle_core.Scenario.ending);
      Format.printf "outcome: %a@." Tussle_core.Interest.pp
        result.Tussle_core.Scenario.final_outcome;
      0
    end
  in
  let doc = "run the actor/mechanism tussle engine" in
  cmd "scenario" ~doc Term.(const run $ rounds $ kinds)

(* ---------- market ---------- *)

let market_cmd =
  let providers =
    Arg.(value & opt (Conv.at_least 1) 4
         & info [ "providers" ] ~doc:"Number of providers.")
  in
  let switching =
    Arg.(value & opt Conv.non_negative 0.0
         & info [ "switching-cost" ] ~doc:"Lock-in cost.")
  in
  let seed =
    Arg.(value & opt Conv.seed 42 & info [ "seed" ] ~doc:"RNG seed.")
  in
  let run providers switching seed =
    let cfg =
      {
        Tussle_econ.Market.default_config with
        Tussle_econ.Market.n_providers = providers;
        switching_cost = switching;
      }
    in
    let r = Tussle_econ.Market.run (Tussle_prelude.Rng.create seed) cfg in
    Printf.printf "price      %.3f (salop benchmark %.3f)\n"
      r.Tussle_econ.Market.mean_price
      (Tussle_econ.Market.salop_price cfg);
    Printf.printf "markup     %.3f\n" r.Tussle_econ.Market.mean_markup;
    Printf.printf "churn      %.1f%%\n" (100.0 *. r.Tussle_econ.Market.churn_rate);
    Printf.printf "surplus    %.1f\n" r.Tussle_econ.Market.consumer_surplus;
    Printf.printf "profit     %.1f\n" r.Tussle_econ.Market.provider_profit;
    Printf.printf "HHI        %.3f\n" r.Tussle_econ.Market.hhi;
    0
  in
  let doc = "run the access-provider market model" in
  cmd "market" ~doc Term.(const run $ providers $ switching $ seed)

(* ---------- policy ---------- *)

let policy_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"POLICY-FILE" ~doc:"Policy file to load.")
  in
  let request =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"SUBJECT:ACTION:RESOURCE"
             ~doc:"Request as subject:action:resource.")
  in
  let root =
    Arg.(value & opt string "root" & info [ "root" ] ~doc:"Trust root.")
  in
  let attr =
    Arg.(value & opt_all string []
         & info [ "a"; "attr" ] ~doc:"Attribute binding name=value (int or string).")
  in
  let run file request root attrs =
    try
      let policy =
        Tussle_policy.Parser.parse
          (In_channel.with_open_bin file In_channel.input_all)
      in
      match String.split_on_char ':' request with
      | [ subject; action; resource ] ->
        let attributes =
          List.filter_map
            (fun binding ->
              match String.index_opt binding '=' with
              | None -> None
              | Some i ->
                let name = String.sub binding 0 i in
                let v =
                  String.sub binding (i + 1) (String.length binding - i - 1)
                in
                let value =
                  match int_of_string_opt v with
                  | Some n -> Tussle_policy.Ast.Int n
                  | None -> Tussle_policy.Ast.Str v
                in
                Some (name, value))
            attrs
        in
        let req =
          { Tussle_policy.Eval.subject; action; resource; attributes }
        in
        let d = Tussle_policy.Eval.decide ~root policy req in
        print_endline (Tussle_policy.Eval.decision_to_string d);
        (match d with Tussle_policy.Eval.Allowed -> 0 | _ -> 1)
      | _ ->
        prerr_endline "request must be subject:action:resource";
        2
    with
    | Tussle_policy.Parser.Parse_error msg ->
      Printf.eprintf "parse error: %s\n" msg;
      2
    | Tussle_policy.Lexer.Lex_error (msg, pos) ->
      Printf.eprintf "lex error at %d: %s\n" pos msg;
      2
    | Sys_error msg ->
      prerr_endline ("policy: " ^ msg);
      2
  in
  let doc = "evaluate a policy compliance query" in
  cmd "policy" ~doc Term.(const run $ file $ request $ root $ attr)

let () =
  Printexc.record_backtrace true;
  let doc = "the Tussle-in-Cyberspace simulation framework" in
  let info = Cmd.info "tussle" ~version:"1.0.0" ~doc ~exits in
  let group =
    Cmd.group info
      [ experiments_cmd; chaos_cmd; sweep_cmd; search_cmd; explain_cmd;
        trends_cmd; report_cmd; perfgate_cmd; scenario_cmd; market_cmd;
        policy_cmd ]
  in
  (* A bad flag value and an unknown option are usage errors like any
     other: exit 2, not cmdliner's 124. *)
  exit
    (match Cmd.eval_value group with
    | Ok (`Ok code) -> code
    | Ok (`Help | `Version) -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> Cmd.Exit.internal_error)
