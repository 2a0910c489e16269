(* The reproduce workload: the per-program evaluation `experiments all` runs,
   [Harness.evaluate] for each of the 24 programs at the default 3M-step
   budget, on one domain, starting from an empty trace cache. *)

open Perfbench
module Harness = Ba_report.Harness
module Profiled = Ba_workloads.Profiled
module Spec = Ba_workloads.Spec

let max_steps = Spec.default_max_steps

(* Everything the process does before its first evaluation. *)
let prepare ~seed =
  let expected = Expected.load Expected.path in
  let order = Reqtable.shuffled ~seed (Array.of_list Spec.all) in
  Profiled.clear ();
  (expected, Array.to_list order)

let probe ~seed =
  ignore (prepare ~seed);
  print_endline "ready";
  0

let time_setup ~seed =
  let r, w = Unix.pipe ~cloexec:true () in
  let argv = [| Sys.executable_name; "probe"; "--seed"; string_of_int seed |] in
  let t0 = Clock.now () in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = In_channel.input_line ic in
  let dt = Clock.now () -. t0 in
  close_in ic;
  match (line, Unix.waitpid [] pid) with
  | Some "ready", (_, Unix.WEXITED 0) -> dt
  | _ -> failwith "the set-up probe failed"

(* [f w] and a full major collection: the garbage an evaluation leaves is
   collected on its own clock, not its successor's, so a program's time does
   not depend on the seeded order. *)
let isolated f w =
  let r = f w in
  Gc.full_major ();
  r

(* One pass over the programs, from an empty trace cache.  [before ()] runs
   ahead of each program, off its clock. *)
let pass ~before order =
  Profiled.clear ();
  Gc.full_major ();
  List.map
    (fun w ->
      before ();
      let t0 = Clock.now () in
      let e = isolated (Harness.evaluate ~max_steps) w in
      (e, Clock.now () -. t0))
    order

let sum = List.fold_left ( +. ) 0.0

(* Each program's time is its fastest pass: interference from other tenants
   of the host only ever slows a pass down. *)
let end_to_end ~setup_s ~rss evals passes =
  let best = List.fold_left (List.map2 Float.min) (List.hd passes) (List.tl passes) in
  [
    ("throughput_rps", float_of_int (List.length best) /. sum best);
    ("latency_p50_ms", 1000.0 *. Pct.of_list 0.5 best);
    ("latency_p90_ms", 1000.0 *. Pct.of_list 0.9 best);
    ("setup_s", setup_s);
    ("peak_rss_mb", rss);
  ]
  @ Replica.rel_cpis evals

(* The traced pass: the same programs through the copy of
   [Harness.evaluate], then the tables rendered from its evaluations. *)
let traced_pass ~seed ~expected ~untraced_s order =
  Profiled.clear ();
  Gc.full_major ();
  let lru0 = Profiled.lru_stats () in
  let (evals, traced_s), t =
    Output.trace (fun () ->
        let t0 = Clock.now () in
        let evals =
          List.mapi
            (fun i w ->
              Spans.request i "evaluate" (fun () -> isolated (Replica.evaluate ~max_steps) w))
            order
        in
        let traced_s = Clock.now () -. t0 in
        ignore
          (Spans.request (List.length order) "tables" (fun () ->
               Spans.with_ "report.tables" (fun () -> Replica.tables evals)));
        (evals, traced_s))
  in
  let lru1 = Profiled.lru_stats () in
  Spans.write t.Output.spans (Output.spans_file ~workload:"reproduce" ~seed);
  let hits = lru1.hits - lru0.hits and misses = lru1.misses - lru0.misses in
  let metrics =
    Output.traced_metrics t ~overhead_pct:(Output.overhead_pct ~traced_s ~untraced_s)
    @ List.map (fun (n, _) -> (n, 0.0)) Metrics.serve_metrics
    @ [
        ( "par.lru.hit_ratio",
          if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses) );
      ]
  in
  (metrics, Replica.check_evals expected ~max_steps evals, List.length evals + 1)

let run ~seed ~seconds ~trace =
  let host0 = Procfs.host () in
  let expected, order = prepare ~seed in
  (* Set-up is process start to the first evaluation, timed on a probe
     process before each program of every pass of a timed run and reported
     as the median: the probes sample the host over the whole run, not over
     one instant. *)
  let probes = ref [] in
  let before () = if not trace then probes := time_setup ~seed :: !probes in
  let t_start = Clock.now () in
  (* Whole passes until [seconds] have been measured, and at least two, so
     that every program has a second chance at a quiet host; the traced run
     needs only one untraced pass to compare against.  A third pass did not
     make ten runs agree better: the host's load drifts over minutes, and a
     longer run only spans more of that drift. *)
  let rec passes acc =
    let acc = pass ~before order :: acc in
    if trace || (List.length acc >= 2 && Clock.now () -. t_start >= seconds) then List.rev acc
    else passes acc
  in
  let all = passes [] in
  let first = List.map fst (List.hd all) in
  let times = List.concat_map (List.map snd) all in
  let failures =
    List.concat_map (fun p -> Replica.check_evals expected ~max_steps (List.map fst p)) all
  in
  let attempted = List.length times + List.length all in
  let layers, trace_failures, trace_attempted =
    if trace then
      traced_pass ~seed ~expected ~untraced_s:(sum (List.map snd (List.hd all))) order
    else ([], [], 0)
  in
  let rss = Procfs.peak_rss_mb "self" in
  let steal_pct = Procfs.steal_pct host0 (Procfs.host ()) in
  Output.noise ~steal_pct;
  let failures = failures @ trace_failures in
  let declared, values =
    if trace then (Metrics.per_layer, layers @ [ ("host.steal_pct", steal_pct) ])
    else
      ( Metrics.end_to_end,
        end_to_end ~setup_s:(Pct.median !probes) ~rss first (List.map (List.map snd) all) )
  in
  Output.result ~declared ~correct:(failures = []) ~attempted:(attempted + trace_attempted)
    ~failed:(List.length failures) ~failures values
