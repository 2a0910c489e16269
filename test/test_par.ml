(* Tests for Ba_par: the deterministic Domain pool, the compute-once cold
   path of the Profiled cache built on it, the library's reentrancy under
   concurrent simulation, and the
   differential guarantee the whole PR rests on — parallel evaluation
   renders byte-identical tables and identical certificate digests. *)

let seq_map f xs = List.map f xs

(* -- Pool ------------------------------------------------------------------- *)

let test_empty () =
  Ba_par.Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (list int)) "empty input" [] (Ba_par.Pool.map pool (fun x -> x) []))

let test_single () =
  Ba_par.Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (list int)) "single task" [ 84 ]
        (Ba_par.Pool.map pool (fun x -> 2 * x) [ 42 ]))

let test_tasks_exceed_domains () =
  let xs = List.init 2000 (fun i -> i) in
  let f x = (x * x) + 1 in
  Ba_par.Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (list int)) "2000 tasks on 4 jobs keep input order"
        (seq_map f xs) (Ba_par.Pool.map pool f xs))

let test_jobs1_matches () =
  let xs = List.init 100 (fun i -> i) in
  let f x = x * 3 in
  Ba_par.Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check (list int)) "-j1 sequential path" (seq_map f xs)
        (Ba_par.Pool.map pool f xs))

let test_mapi_and_array () =
  Ba_par.Pool.with_pool ~jobs:3 (fun pool ->
      Alcotest.(check (list int)) "mapi sees indexes" [ 10; 21; 32 ]
        (Ba_par.Pool.mapi pool (fun i x -> (10 * x) + i) [ 1; 2; 3 ]);
      Alcotest.(check (array int)) "map_array" [| 2; 4; 6 |]
        (Ba_par.Pool.map_array pool (fun x -> 2 * x) [| 1; 2; 3 |]))

exception Boom of int

let test_exception_propagation () =
  Ba_par.Pool.with_pool ~jobs:4 (fun pool ->
      let f x = if x = 7 || x = 100 then raise (Boom x) else x in
      (* Two tasks raise; the reported exception is the lowest-indexed one —
         exactly what a sequential left-to-right run would surface. *)
      (match Ba_par.Pool.map pool f (List.init 500 (fun i -> i)) with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> Alcotest.(check int) "lowest raising index wins" 7 i);
      (* The pool survives a failed batch. *)
      Alcotest.(check (list int)) "pool reusable after failure" [ 2; 4 ]
        (Ba_par.Pool.map pool (fun x -> 2 * x) [ 1; 2 ]))

let test_reuse () =
  Ba_par.Pool.with_pool ~jobs:4 (fun pool ->
      for round = 1 to 5 do
        let xs = List.init (100 * round) (fun i -> i) in
        Alcotest.(check (list int))
          (Printf.sprintf "round %d" round)
          (seq_map (fun x -> x + round) xs)
          (Ba_par.Pool.map pool (fun x -> x + round) xs)
      done)

let test_map_reduce () =
  let xs = List.init 64 (fun i -> i) in
  let f x = Printf.sprintf "%x" x in
  let expected = List.fold_left (fun acc s -> acc ^ s) "" (List.map f xs) in
  Ba_par.Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check string) "non-commutative reduce keeps task order" expected
        (Ba_par.Pool.map_reduce pool ~map:f ~reduce:(fun acc s -> acc ^ s) ~init:"" xs))

let test_stress_result_index_integrity () =
  (* Tasks do wildly different amounts of work, so completion order is
     thoroughly interleaved; every result must still land in its own slot. *)
  let n = 3000 in
  let f i =
    let work = (i * 2654435761) land 1023 in
    let acc = ref i in
    for k = 1 to work do
      acc := (!acc * 31) + k
    done;
    (i, !acc)
  in
  let expected = Array.init n f in
  Ba_par.Pool.with_pool ~jobs:8 (fun pool ->
      let got = Ba_par.Pool.map_array pool f (Array.init n (fun i -> i)) in
      Alcotest.(check bool) "all slots hold their own task's result" true
        (got = expected))

let test_nested_map_runs_inline () =
  Ba_par.Pool.with_pool ~jobs:4 (fun pool ->
      let got =
        Ba_par.Pool.map pool
          (fun x ->
            (* A map issued from inside a task must not deadlock. *)
            Ba_par.Pool.map_reduce pool
              ~map:(fun y -> x * y)
              ~reduce:( + ) ~init:0 [ 1; 2; 3 ])
          (List.init 16 (fun i -> i))
      in
      Alcotest.(check (list int)) "nested totals" (List.init 16 (fun i -> 6 * i)) got)

let test_timed_map () =
  Ba_par.Pool.with_pool ~jobs:2 (fun pool ->
      let results, stats =
        Ba_par.Pool.timed_map pool ~label:"squares"
          ~task_label:string_of_int
          (fun x -> x * x)
          [ 3; 4; 5 ]
      in
      Alcotest.(check (list int)) "results" [ 9; 16; 25 ] results;
      Alcotest.(check int) "task count" 3 (Ba_par.Stats.tasks stats);
      Alcotest.(check (array string)) "labels" [| "3"; "4"; "5" |]
        stats.Ba_par.Stats.task_labels;
      Alcotest.(check bool) "wall time measured" true
        (stats.Ba_par.Stats.wall_seconds >= 0.0);
      Alcotest.(check bool) "speedup finite" true
        (Float.is_finite (Ba_par.Stats.speedup stats)))

let test_default_jobs_env () =
  let saved = Sys.getenv_opt "BA_JOBS" in
  let restore () =
    match saved with
    | Some v -> Unix.putenv "BA_JOBS" v
    | None -> Unix.putenv "BA_JOBS" ""
  in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv "BA_JOBS" "3";
      Alcotest.(check int) "BA_JOBS honoured" 3 (Ba_par.Pool.default_jobs ());
      Alcotest.(check bool) "valid env passes check_env" true
        (Ba_par.Pool.check_env () = Ok ());
      Unix.putenv "BA_JOBS" "not-a-number";
      (match Ba_par.Pool.default_jobs () with
      | (_ : int) -> Alcotest.fail "garbage BA_JOBS must be rejected"
      | exception Failure _ -> ());
      Alcotest.(check bool) "garbage fails check_env" true
        (match Ba_par.Pool.check_env () with Error _ -> true | Ok () -> false);
      Unix.putenv "BA_JOBS" "";
      Alcotest.(check bool) "unset env passes check_env" true
        (Ba_par.Pool.check_env () = Ok ()))

(* The CLI-facing parser behind -j and BA_JOBS: positive integers only,
   with an error message that names the offending value. *)
let test_jobs_of_string () =
  List.iter
    (fun (s, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "%S parses" s)
        true
        (Ba_par.Pool.jobs_of_string s = Ok expected))
    [ ("1", 1); ("4", 4); (" 8 ", 8); ("64", 64) ];
  List.iter
    (fun s ->
      match Ba_par.Pool.jobs_of_string s with
      | Ok n -> Alcotest.fail (Printf.sprintf "%S accepted as %d" s n)
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%S rejected with a message" s)
          true
          (String.length msg > 0))
    [ "0"; "-1"; "-3"; "garbage"; ""; "1.5"; "4x" ]

(* -- Reentrancy: concurrent simulation ------------------------------------- *)

let sim_archs =
  [
    Ba_sim.Bep.Static_fallthrough;
    Ba_sim.Bep.Static_btfnt;
    Ba_sim.Bep.Pht_gshare { entries = 4096; history_bits = 12 };
    Ba_sim.Bep.Btb_arch { entries = 64; assoc = 2 };
  ]

let sim_fingerprint (out : Ba_sim.Runner.outcome) =
  ( out.Ba_sim.Runner.result.Ba_exec.Engine.insns,
    out.Ba_sim.Runner.result.Ba_exec.Engine.steps,
    out.Ba_sim.Runner.result.Ba_exec.Engine.branches,
    Array.to_list
      (Array.map
         (fun (_, sim) ->
           let c = Ba_sim.Bep.counts sim in
           (Ba_sim.Bep.bep sim, c.Ba_sim.Bep.misfetches, c.Ba_sim.Bep.mispredicts))
         out.Ba_sim.Runner.sims) )

let test_concurrent_simulation_matches_sequential () =
  (* Two domains simulate the same image object at once; if any simulator,
     predictor or interpreter state were shared at toplevel, the counters
     would diverge from the sequential run. *)
  let w = Option.get (Ba_workloads.Spec.by_name "compress") in
  let program = w.Ba_workloads.Spec.build () in
  let image = Ba_layout.Image.original program in
  let run () = sim_fingerprint (Ba_sim.Runner.simulate ~max_steps:20_000 ~archs:sim_archs image) in
  let sequential = run () in
  Alcotest.(check bool) "sequential runs are bit-identical" true (run () = sequential);
  let d1 = Domain.spawn run and d2 = Domain.spawn run in
  let c1 = Domain.join d1 and c2 = Domain.join d2 in
  Alcotest.(check bool) "concurrent run 1 matches sequential" true (c1 = sequential);
  Alcotest.(check bool) "concurrent run 2 matches sequential" true (c2 = sequential)

(* -- Differential determinism: tables and digests --------------------------- *)

let diff_workloads () =
  List.filter_map Ba_workloads.Spec.by_name
    [ "alvinn"; "swm256"; "compress"; "espresso"; "gcc"; "groff" ]

let diff_steps = 20_000

let test_tables_byte_identical () =
  let ws = diff_workloads () in
  Alcotest.(check int) "six workloads selected" 6 (List.length ws);
  let seq = Ba_report.Harness.evaluate_suite ~max_steps:diff_steps ~jobs:1 ws in
  let par = Ba_report.Harness.evaluate_suite ~max_steps:diff_steps ~jobs:4 ws in
  Alcotest.(check string) "table2 byte-identical under -j4"
    (Ba_report.Tables.table2 seq) (Ba_report.Tables.table2 par);
  Alcotest.(check string) "table3 byte-identical under -j4"
    (Ba_report.Tables.table3 seq) (Ba_report.Tables.table3 par);
  Alcotest.(check string) "fig4 byte-identical under -j4"
    (Ba_report.Tables.fig4 seq) (Ba_report.Tables.fig4 par)

let digests_of result =
  List.map
    (fun c -> (c.Ba_verify.Certificate.arch, c.Ba_verify.Certificate.digest))
    result.Ba_verify.Run.certificates

(* The process-wide Profiled memo may already hold these workloads from
   earlier suites, which would turn every [get] below into a hit and leave
   the memo's cold path (miss -> compute -> Pending await) untested.
   Clearing first makes the cold path run deterministically regardless of
   test order. *)
let test_profiled_cold_path () =
  let w = Option.get (Ba_workloads.Spec.by_name "compress") in
  Ba_workloads.Profiled.clear ();
  let results =
    Ba_par.Pool.with_pool ~jobs:4 (fun pool ->
        Ba_par.Pool.map pool
          (fun _ -> Ba_workloads.Profiled.get ~max_steps:diff_steps w)
          (List.init 8 (fun i -> i)))
  in
  let hits, misses = Ba_workloads.Profiled.stats () in
  Alcotest.(check int) "one cold compute for the shared key" 1 misses;
  Alcotest.(check int) "every other task awaited the pending cell" 7 hits;
  (match results with
  | (program, profile) :: rest ->
    Alcotest.(check bool) "all tasks share one program instance" true
      (List.for_all (fun (p, _) -> p == program) rest);
    Alcotest.(check bool) "all tasks share one profile instance" true
      (List.for_all (fun (_, pr) -> pr == profile) rest)
  | [] -> Alcotest.fail "no results");
  Ba_workloads.Profiled.clear ();
  ignore (Ba_workloads.Profiled.get ~max_steps:diff_steps w);
  let _, misses = Ba_workloads.Profiled.stats () in
  Alcotest.(check int) "clear forces a recompute" 1 misses

let test_certificate_digests_identical () =
  let ws = diff_workloads () in
  let algo = Ba_core.Align.Tryn 15 in
  Ba_workloads.Profiled.clear ();
  let verify ?pool (w : Ba_workloads.Spec.t) =
    let _program, profile = Ba_workloads.Profiled.get ~max_steps:diff_steps w in
    ( w.Ba_workloads.Spec.name,
      digests_of
        (Ba_verify.Run.verify ?pool ~arch:Ba_core.Cost_model.Btfnt ~profile
           (Ba_delta.Algo.Core algo)) )
  in
  let sequential = List.map (fun w -> verify w) ws in
  let _, misses = Ba_workloads.Profiled.stats () in
  Alcotest.(check int) "sequential round profiled every workload cold"
    (List.length ws) misses;
  (* Outer parallelism: workloads verified on 4 domains. *)
  let outer =
    Ba_par.Pool.with_pool ~jobs:4 (fun pool ->
        Ba_par.Pool.map pool (fun w -> verify w) ws)
  in
  (* Inner parallelism: one workload at a time, architectures certified on
     4 domains. *)
  let inner =
    Ba_par.Pool.with_pool ~jobs:4 (fun pool -> List.map (fun w -> verify ~pool w) ws)
  in
  Alcotest.(check bool) "digests unchanged under workload-parallel run" true
    (outer = sequential);
  Alcotest.(check bool) "digests unchanged under arch-parallel run" true
    (inner = sequential);
  List.iter
    (fun (name, digests) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: one certificate per architecture" name)
        (List.length Ba_core.Cost_model.all_arches)
        (List.length digests))
    sequential

(* The ISSUE's acceptance bar for the observability layer: the full metrics
   document — every decision counter, predictor counter, histogram and span
   count — is byte-identical whatever the pool width.  The Profiled memo is
   cleared before each run so both start from the same cold state. *)
let test_metrics_json_byte_identical () =
  let collect jobs =
    Ba_workloads.Profiled.clear ();
    let r = Ba_obs.Registry.create () in
    Ba_obs.Registry.with_registry r (fun () ->
        ignore
          (Ba_report.Harness.evaluate_suite ~max_steps:diff_steps ~jobs
             (diff_workloads ())
            : Ba_report.Harness.eval list));
    (r, Ba_util.Json.to_string (Ba_obs.Sink.to_json r))
  in
  let r1, j1 = collect 1 in
  let _, j4 = collect 4 in
  Alcotest.(check string) "metrics JSON byte-identical -j1 vs -j4" j1 j4;
  (* Sanity: the document is not vacuous — the alignment decision counters,
     predictor counters and simulator penalty counters all fired. *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " collected") true
        (Ba_obs.Registry.counter_value r1 name > 0))
    [
      "core.align.greedy.link"; "core.align.tryn.link"; "exec.engine.runs";
      "predict.pht.lookup"; "predict.ras.push"; "sim.bep.misfetch_cycles";
      "sim.bep.mispredict_cycles"; "lru.profiled.miss"; "par.pool.batch";
    ]

let test_evaluate_suite_timed () =
  let ws = diff_workloads () in
  let evals, stats =
    Ba_report.Harness.evaluate_suite_timed ~max_steps:diff_steps ~jobs:2 ws
  in
  Alcotest.(check int) "one eval per workload" (List.length ws) (List.length evals);
  Alcotest.(check (array string)) "tasks labelled by workload"
    (Array.of_list (List.map (fun (w : Ba_workloads.Spec.t) -> w.Ba_workloads.Spec.name) ws))
    stats.Ba_par.Stats.task_labels

let suites =
  [
    ( "par.pool",
      [
        Alcotest.test_case "empty input" `Quick test_empty;
        Alcotest.test_case "single task" `Quick test_single;
        Alcotest.test_case "tasks exceed domains" `Quick test_tasks_exceed_domains;
        Alcotest.test_case "-j1 sequential path" `Quick test_jobs1_matches;
        Alcotest.test_case "mapi and map_array" `Quick test_mapi_and_array;
        Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
        Alcotest.test_case "pool reuse" `Quick test_reuse;
        Alcotest.test_case "deterministic map_reduce" `Quick test_map_reduce;
        Alcotest.test_case "stress: result-index integrity" `Quick
          test_stress_result_index_integrity;
        Alcotest.test_case "nested map runs inline" `Quick test_nested_map_runs_inline;
        Alcotest.test_case "timed map stats" `Quick test_timed_map;
        Alcotest.test_case "BA_JOBS default" `Quick test_default_jobs_env;
        Alcotest.test_case "jobs_of_string validation" `Quick test_jobs_of_string;
      ] );
    ( "par.memo",
      [
        Alcotest.test_case "profiled memo cold path" `Slow test_profiled_cold_path;
      ] );
    ( "par.reentrancy",
      [
        Alcotest.test_case "concurrent simulation matches sequential" `Quick
          test_concurrent_simulation_matches_sequential;
      ] );
    ( "par.determinism",
      [
        Alcotest.test_case "tables byte-identical -j1 vs -j4" `Slow
          test_tables_byte_identical;
        Alcotest.test_case "certificate digests identical" `Slow
          test_certificate_digests_identical;
        Alcotest.test_case "metrics JSON byte-identical -j1 vs -j4" `Slow
          test_metrics_json_byte_identical;
        Alcotest.test_case "timed suite evaluation" `Slow test_evaluate_suite_timed;
      ] );
  ]
