(* Benchmark harness.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- tables  -- only regenerate the paper tables
     dune exec bench/main.exe -- micro   -- only the Bechamel microbenchmarks

   Two jobs live here:

   1. "tables": regenerate every table and figure of the paper at full
      trace scale on the Ba_par pool and print them (the same output
      `experiments all` produces), followed by a JSON record of the
      per-workload evaluation wall times — this is the reproduction
      artifact.

   2. "micro": Bechamel timings with one Test.make per table/figure (the
      regeneration pipelines at reduced trace scale, so the timer can
      iterate) plus microbenchmarks of the three alignment algorithms and
      of the simulation substrate. *)

open Bechamel
open Toolkit

let reduced_steps = 30_000

(* A profiled mid-size workload for the algorithm microbenchmarks; gcc has
   the most procedures and branch sites.  The profile comes from the
   process-wide Profiled memo rather than a toplevel [lazy]: Lazy.force
   from two domains at once raises [Lazy.Undefined], the memo blocks the
   second caller instead. *)
let gcc_profile () =
  let w = Option.get (Ba_workloads.Spec.by_name "gcc") in
  snd (Ba_workloads.Profiled.get ~max_steps:reduced_steps w)

let subset names = List.filter_map Ba_workloads.Spec.by_name names

let table_workloads =
  subset [ "alvinn"; "swm256"; "compress"; "espresso"; "gcc"; "groff" ]

let fig4_workloads = subset [ "alvinn"; "eqntott"; "sc" ]

let evaluate workloads =
  Ba_report.Harness.evaluate_suite ~max_steps:reduced_steps workloads

(* One Test.make per table / figure: each runs that table's full
   regeneration pipeline (profile, align, multi-architecture simulation,
   formatting) over a representative subset at reduced scale. *)
let table_tests =
  Test.make_grouped ~name:"tables"
    [
      Test.make ~name:"table1" (Staged.stage (fun () -> Ba_report.Tables.table1 ()));
      Test.make ~name:"table2"
        (Staged.stage (fun () -> Ba_report.Tables.table2 (evaluate table_workloads)));
      Test.make ~name:"table3"
        (Staged.stage (fun () -> Ba_report.Tables.table3 (evaluate table_workloads)));
      Test.make ~name:"table4"
        (Staged.stage (fun () -> Ba_report.Tables.table4 (evaluate table_workloads)));
      Test.make ~name:"fig4"
        (Staged.stage (fun () -> Ba_report.Tables.fig4 (evaluate fig4_workloads)));
    ]

let align_with algo =
  let profile = gcc_profile () in
  ignore (Ba_core.Align.align_program algo ~arch:Ba_core.Cost_model.Fallthrough profile)

let algorithm_tests =
  Test.make_grouped ~name:"alignment"
    [
      Test.make ~name:"greedy" (Staged.stage (fun () -> align_with Ba_core.Align.Greedy));
      Test.make ~name:"cost" (Staged.stage (fun () -> align_with Ba_core.Align.Cost));
      Test.make ~name:"try5" (Staged.stage (fun () -> align_with (Ba_core.Align.Tryn 5)));
      Test.make ~name:"try15" (Staged.stage (fun () -> align_with (Ba_core.Align.Tryn 15)));
    ]

let substrate_tests =
  let program =
    (Option.get (Ba_workloads.Spec.by_name "espresso")).Ba_workloads.Spec.build ()
  in
  Test.make_grouped ~name:"substrate"
    [
      Test.make ~name:"interpret-30k-steps"
        (Staged.stage (fun () ->
             ignore
               (Ba_exec.Engine.run ~max_steps:reduced_steps
                  (Ba_layout.Image.original program))));
      Test.make ~name:"simulate-6-archs"
        (Staged.stage (fun () ->
             ignore
               (Ba_sim.Runner.simulate ~max_steps:reduced_steps
                  ~archs:
                    [
                      Ba_sim.Bep.Static_fallthrough;
                      Ba_sim.Bep.Static_btfnt;
                      Ba_sim.Bep.Pht_direct { entries = 4096 };
                      Ba_sim.Bep.Pht_gshare { entries = 4096; history_bits = 12 };
                      Ba_sim.Bep.Btb_arch { entries = 64; assoc = 2 };
                      Ba_sim.Bep.Btb_arch { entries = 256; assoc = 4 };
                    ]
                  (Ba_layout.Image.original program))));
    ]

let run_micro () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~stabilize:false ~kde:(Some 100) ()
  in
  let measure_and_analyze tests =
    let raw = Benchmark.all cfg instances tests in
    Analyze.merge ols instances
      (List.map (fun instance -> Analyze.all ols instance raw) instances)
  in
  List.iter (fun i -> Bechamel_notty.Unit.add i (Measure.unit i)) instances;
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 120; h = 1 }
  in
  List.iter
    (fun tests ->
      let results = measure_and_analyze tests in
      Notty_unix.output_image
        (Notty_unix.eol
           (Bechamel_notty.Multiple.image_of_ols_results ~rect:window
              ~predictor:Measure.run results)))
    [ table_tests; algorithm_tests; substrate_tests ]

(* Perf-trajectory record: BENCH_<n>.json.

   For every workload, time one full harness evaluation from a cold
   Profiled cache, so it pays its own profiling pass, and record the packed
   trace's size.  The file number self-advances past
   any BENCH_*.json already in the working directory, so successive runs
   accumulate a trajectory; CI uploads the file as an artifact. *)
let record_steps = 200_000

let next_bench_path () =
  let n =
    Array.fold_left
      (fun acc f ->
        if
          String.length f >= 12
          && String.sub f 0 6 = "BENCH_"
          && Filename.check_suffix f ".json"
        then
          match int_of_string_opt (String.sub f 6 (String.length f - 11)) with
          | Some n -> max acc n
          | None -> acc
        else acc)
      0 (Sys.readdir ".")
  in
  Printf.sprintf "BENCH_%d.json" (n + 1)

let time_run f =
  let t0 = Unix.gettimeofday () in
  ignore (f ());
  Unix.gettimeofday () -. t0

let run_record () =
  let rows =
    List.map
      (fun (w : Ba_workloads.Spec.t) ->
        Ba_workloads.Profiled.clear ();
        let replay_s =
          time_run (fun () -> Ba_report.Harness.evaluate ~max_steps:record_steps w)
        in
        let program, profile, trace =
          Ba_workloads.Profiled.get_traced ~max_steps:record_steps w
        in
        (* The static conflict analysis stage, from the warm profile: one
           full default-suite pass over the original image's address map. *)
        let analyze_s =
          time_run (fun () ->
              Ba_conflict.Analyze.analyze ~profile
                (Ba_layout.Image.original ~profile program))
        in
        (* The abstract-interpretation bound stage: price the original
           image under all five cost-model architectures. *)
        let bound_s =
          time_run (fun () ->
              let image = Ba_layout.Image.original ~profile program in
              List.iter
                (fun model ->
                  ignore
                    (Ba_bound.Analyze.bounds
                       ~arch:(Ba_bound.Analyze.arch_of_model model ~profile image)
                       ~profile image))
                Ba_report.Gap.models)
        in
        (* Try15 candidate scoring, delta vs full: price the same sampled
           one-move neighbours of the Try15 layout with the incremental
           evaluator (one Stream pass amortised, O(affected sites) per
           candidate) and with a full trace replay per candidate.  Both
           sides produce identical integers (test_delta.ml's wall); the
           ratio is the point of the delta subsystem. *)
        let delta_s, full_s =
          let base =
            Ba_core.Align.align_program (Ba_core.Align.Tryn 15)
              ~arch:Ba_core.Cost_model.Btfnt profile
          in
          let moves =
            List.filteri
              (fun i _ -> i < 24)
              (Ba_delta.Move.enumerate
                 ~cond_counts:(fun p b -> Ba_cfg.Profile.cond_counts profile p b)
                 program base)
          in
          let spec = Ba_delta.Eval.spec_of_model Ba_core.Cost_model.Btfnt in
          let ev = Ba_delta.Eval.create ~specs:[| spec |] profile trace base in
          let delta_s =
            time_run (fun () ->
                List.iter
                  (fun mv ->
                    ignore
                      (Ba_delta.Eval.cost_arch ev 0 (Ba_delta.Move.apply base mv)
                        : int))
                  moves)
          in
          let full_s =
            time_run (fun () ->
                List.iter
                  (fun mv ->
                    let image =
                      Ba_layout.Image.build ~profile program
                        (Ba_delta.Move.apply base mv)
                    in
                    let arch = Ba_delta.Eval.to_arch spec ~image ~profile in
                    ignore
                      (Ba_sim.Runner.simulate ~max_steps:record_steps ~trace
                         ~archs:[ arch ] image
                        : Ba_sim.Runner.outcome))
                  moves)
          in
          (delta_s, full_s)
        in
        (* ExtTsp chain-merge pricing, incremental vs from-scratch: run
           the same merge loop twice, once reading the windowed
           evaluator's cached total after every merge and once
           recomputing every edge with scratch_total.  Both sides see
           identical floats (test_exttsp.ml's wall holds them
           bit-equal); the ratio is what incremental merge pricing
           buys. *)
        let exttsp_delta_s, exttsp_full_s =
          let merge_loop ~price pid =
            let ev = Ba_core.Exttsp.Eval.create profile pid in
            let rec loop () =
              match Ba_core.Exttsp.Eval.best_merge ev with
              | None -> ()
              | Some (a, b, _) ->
                Ba_core.Exttsp.Eval.merge ev a b;
                ignore (price ev : float);
                loop ()
            in
            loop ()
          in
          let each price () =
            for pid = 0 to Ba_ir.Program.n_procs program - 1 do
              merge_loop ~price pid
            done
          in
          ( time_run (each Ba_core.Exttsp.Eval.total),
            time_run (each Ba_core.Exttsp.Eval.scratch_total) )
        in
        ( w.Ba_workloads.Spec.name, replay_s, analyze_s, bound_s, delta_s,
          full_s, exttsp_delta_s, exttsp_full_s, trace ))
      Ba_workloads.Spec.all
  in
  let total f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows in
  let total_replay = total (fun (_, r, _, _, _, _, _, _, _) -> r) in
  let total_analyze = total (fun (_, _, a, _, _, _, _, _, _) -> a) in
  let total_bound = total (fun (_, _, _, b, _, _, _, _, _) -> b) in
  let total_delta = total (fun (_, _, _, _, d, _, _, _, _) -> d) in
  let total_full = total (fun (_, _, _, _, _, f, _, _, _) -> f) in
  let total_exttsp_delta = total (fun (_, _, _, _, _, _, d, _, _) -> d) in
  let total_exttsp_full = total (fun (_, _, _, _, _, _, _, f, _) -> f) in
  let json =
    Ba_util.Json.Obj
      [
        ("schema", Ba_util.Json.String "ba-bench-trajectory/2");
        ("max_steps", Ba_util.Json.Int record_steps);
        ( "workloads",
          Ba_util.Json.List
            (List.map
               (fun
                 ( name, replay_s, analyze_s, bound_s, delta_s, full_s,
                   exttsp_delta_s, exttsp_full_s, trace )
               ->
                 Ba_util.Json.Obj
                   [
                     ("workload", Ba_util.Json.String name);
                     ("replay_s", Ba_util.Json.Float replay_s);
                     ("analyze_s", Ba_util.Json.Float analyze_s);
                     ("bound_s", Ba_util.Json.Float bound_s);
                     ("delta_s", Ba_util.Json.Float delta_s);
                     ("full_s", Ba_util.Json.Float full_s);
                     ("exttsp_delta_s", Ba_util.Json.Float exttsp_delta_s);
                     ("exttsp_full_s", Ba_util.Json.Float exttsp_full_s);
                     ("delta_speedup", Ba_util.Json.Float (full_s /. delta_s));
                     ( "exttsp_speedup",
                       Ba_util.Json.Float (exttsp_full_s /. exttsp_delta_s) );
                     ( "trace_bytes",
                       Ba_util.Json.Int (Ba_trace.Trace.byte_size trace) );
                     ("trace_steps", Ba_util.Json.Int trace.Ba_trace.Trace.steps);
                   ])
               rows) );
        ("total_replay_s", Ba_util.Json.Float total_replay);
        ("total_analyze_s", Ba_util.Json.Float total_analyze);
        ("total_bound_s", Ba_util.Json.Float total_bound);
        ("total_delta_s", Ba_util.Json.Float total_delta);
        ("total_full_s", Ba_util.Json.Float total_full);
        ("total_exttsp_delta_s", Ba_util.Json.Float total_exttsp_delta);
        ("total_exttsp_full_s", Ba_util.Json.Float total_exttsp_full);
        ( "total_delta_speedup",
          Ba_util.Json.Float (total_full /. total_delta) );
        ( "total_exttsp_speedup",
          Ba_util.Json.Float (total_exttsp_full /. total_exttsp_delta) );
      ]
  in
  let path = next_bench_path () in
  let oc = open_out path in
  output_string oc (Ba_util.Json.to_string json);
  output_string oc "\n";
  close_out oc;
  Printf.printf "== Perf trajectory (%d steps) ==\n" record_steps;
  List.iter
    (fun
      ( name, replay_s, analyze_s, bound_s, delta_s, full_s, exttsp_delta_s,
        exttsp_full_s, trace )
    ->
      Printf.printf
        "%-12s replay %6.3fs  analyze %6.3fs  bound %6.3fs  \
         delta %8.5fs  full %6.3fs  delta-speedup %7.1fx  \
         exttsp %8.5fs/%8.5fs  trace %d B\n"
        name replay_s analyze_s bound_s delta_s full_s (full_s /. delta_s)
        exttsp_delta_s exttsp_full_s (Ba_trace.Trace.byte_size trace))
    rows;
  Printf.printf
    "%-12s replay %6.3fs  analyze %6.3fs  bound %6.3fs  \
     delta %8.5fs  full %6.3fs  delta-speedup %7.1fx  \
     exttsp %8.5fs/%8.5fs (%5.1fx)\n"
    "TOTAL" total_replay total_analyze total_bound total_delta total_full
    (total_full /. total_delta) total_exttsp_delta total_exttsp_full
    (total_exttsp_full /. total_exttsp_delta);
  Printf.printf "wrote %s\n" path

(* Serve-mode load generator:

     dune exec bench/main.exe -- serve --clients C --requests R \
         --mix align,simulate,verify

   Spins an in-process {!Ba_serve.Server} three times against the same
   deterministic request table — cold cache at -j1, cold cache at -j4,
   warm cache at -j4 — and drives each instance with C pipelining client
   domains.  The serving contract is checked end to end: every request
   answered ok, all three waves byte-identical per request id, and the
   warm wave served mostly from the Profiled LRU.  Throughput,
   server-side latency percentiles and cache hit rates land in
   BENCH_<n>.json (schema ba-serve-bench/1); any violated check makes the
   run exit non-zero, so CI can gate on this binary alone. *)

module P = Ba_serve.Protocol

let serve_steps = 20_000
let serve_window = 8
let serve_algos = [| "try15"; "greedy"; "cost"; "exttsp"; "orig" |]
let serve_arches = [| "btfnt"; "fallthrough"; "pht" |]

let parse_serve_args () =
  let clients = ref 8 and requests = ref 1200 in
  let mix = ref [ P.Align; P.Simulate; P.Verify ] in
  let usage () =
    Printf.eprintf
      "usage: bench serve [--clients C] [--requests R] [--mix align,simulate,verify]\n";
    exit 1
  in
  let positive flag s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> n
    | _ ->
      Printf.eprintf "bench serve: %s wants a positive integer, got %S\n" flag s;
      usage ()
  in
  let parse_mix s =
    let kind k =
      match P.kind_of_name (String.trim k) with
      | Ok P.Metrics ->
        (* Metrics bodies carry wall-clock times, so they can never take
           part in the byte-identity checks. *)
        Printf.eprintf "bench serve: --mix takes compute kinds, not metrics\n";
        usage ()
      | Ok kind -> kind
      | Error msg ->
        Printf.eprintf "bench serve: %s\n" msg;
        usage ()
    in
    match String.split_on_char ',' s with
    | [] -> usage ()
    | ks -> List.map kind ks
  in
  let rec loop i =
    if i < Array.length Sys.argv then begin
      let value flag =
        if i + 1 >= Array.length Sys.argv then begin
          Printf.eprintf "bench serve: %s needs a value\n" flag;
          usage ()
        end
        else Sys.argv.(i + 1)
      in
      (match Sys.argv.(i) with
      | "--clients" -> clients := positive "--clients" (value "--clients")
      | "--requests" -> requests := positive "--requests" (value "--requests")
      | "--mix" -> mix := parse_mix (value "--mix")
      | other ->
        Printf.eprintf "bench serve: unknown flag %S\n" other;
        usage ());
      loop (i + 2)
    end
  in
  loop 2;
  (!clients, !requests, !mix)

(* The request table is a pure function of (requests, mix): workloads,
   algorithms and architectures rotate on independent periods, so every
   wave replays the identical id -> request mapping and responses can be
   compared byte for byte across waves. *)
let serve_request_table ~requests ~mix =
  let kinds = Array.of_list mix in
  let workloads = Array.of_list Ba_workloads.Spec.all in
  Array.init requests (fun i ->
      let w = workloads.(i mod Array.length workloads) in
      P.request ~workload:w.Ba_workloads.Spec.name
        ~algo:serve_algos.(i mod Array.length serve_algos)
        ~arch:serve_arches.(i mod Array.length serve_arches)
        ~max_steps:serve_steps ~id:i
        kinds.(i mod Array.length kinds))

type wave = {
  w_label : string;
  w_jobs : int;
  w_cold : bool;
  w_wall_s : float;
  w_retries : int;  (** overloaded rejections that were re-sent *)
  w_hits : int;
  w_misses : int;
  w_server : Ba_util.Json.t;  (** the metrics response's "server" block *)
  w_bodies : string array;  (** response body per request id; [""] = unanswered *)
}

let run_wave ~label ~jobs ~cold ~clients reqs =
  if cold then Ba_workloads.Profiled.clear ();
  let lru0 = Ba_workloads.Profiled.lru_stats () in
  let socket_path =
    Printf.sprintf "/tmp/ba-bench-%d-%s.sock" (Unix.getpid ()) label
  in
  let cfg =
    {
      (Ba_serve.Server.default_config ~socket_path) with
      jobs = Some jobs;
      install_signals = false;
    }
  in
  let handle = Ba_serve.Server.start cfg in
  let n = Array.length reqs in
  let bodies = Array.make n "" in
  let t0 = Unix.gettimeofday () in
  (* Each client owns the ids congruent to its index and keeps up to
     [serve_window] requests in flight; an overloaded rejection re-queues
     the id after a tiny backoff. *)
  let worker c =
    let cl = Ba_serve.Client.connect socket_path in
    let queue = Queue.create () in
    for i = 0 to n - 1 do
      if i mod clients = c then Queue.add i queue
    done;
    let outstanding = ref 0 and retries = ref 0 in
    let rec pump () =
      if (not (Queue.is_empty queue)) || !outstanding > 0 then begin
        while !outstanding < serve_window && not (Queue.is_empty queue) do
          Ba_serve.Client.send cl reqs.(Queue.pop queue);
          incr outstanding
        done;
        (match Ba_serve.Client.recv cl with
        | None -> failwith "server closed the connection mid-wave"
        | Some r -> (
          decr outstanding;
          match r.P.status with
          | P.Ok_ -> bodies.(r.P.rid) <- Ba_util.Json.to_string r.P.body
          | P.Error_ msg ->
            failwith (Printf.sprintf "request %d failed: %s" r.P.rid msg)
          | P.Overloaded ->
            incr retries;
            ignore (Unix.select [] [] [] 0.002);
            Queue.add r.P.rid queue));
        pump ()
      end
    in
    pump ();
    Ba_serve.Client.close cl;
    !retries
  in
  let domains = List.init clients (fun c -> Domain.spawn (fun () -> worker c)) in
  let retries = List.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
  let wall_s = Unix.gettimeofday () -. t0 in
  let cl = Ba_serve.Client.connect socket_path in
  let m = Ba_serve.Client.call cl (P.request ~id:n P.Metrics) in
  Ba_serve.Client.close cl;
  Ba_serve.Server.stop handle;
  let lru1 = Ba_workloads.Profiled.lru_stats () in
  let w_server =
    Option.value ~default:Ba_util.Json.Null
      (Ba_util.Json.member "server" m.P.body)
  in
  {
    w_label = label;
    w_jobs = jobs;
    w_cold = cold;
    w_wall_s = wall_s;
    w_retries = retries;
    w_hits = lru1.Ba_par.Lru.hits - lru0.Ba_par.Lru.hits;
    w_misses = lru1.Ba_par.Lru.misses - lru0.Ba_par.Lru.misses;
    w_server;
    w_bodies = bodies;
  }

let run_serve () =
  let clients, requests, mix = parse_serve_args () in
  let reqs = serve_request_table ~requests ~mix in
  Printf.printf "== Serve bench: %d clients, %d requests, mix %s ==\n%!" clients
    requests
    (String.concat "," (List.map P.kind_name mix));
  let service_pct w field =
    match Ba_util.Json.member "service" w.w_server with
    | Some s ->
      Option.value ~default:0
        (Option.bind (Ba_util.Json.member field s) Ba_util.Json.to_int_opt)
    | None -> 0
  in
  let hit_rate w =
    float_of_int w.w_hits /. float_of_int (max 1 (w.w_hits + w.w_misses))
  in
  let report w =
    Printf.printf
      "%-8s -j%d  %6.2fs  %7.1f req/s  service p50 %6d us  p95 %6d us  p99 \
       %6d us  cache %d/%d (%.1f%% hit)%s\n\
       %!"
      w.w_label w.w_jobs w.w_wall_s
      (float_of_int requests /. w.w_wall_s)
      (service_pct w "p50_us") (service_pct w "p95_us")
      (service_pct w "p99_us") w.w_hits (w.w_hits + w.w_misses)
      (100.0 *. hit_rate w)
      (if w.w_retries > 0 then Printf.sprintf "  %d retries" w.w_retries
       else "")
  in
  let wave label jobs cold =
    let w = run_wave ~label ~jobs ~cold ~clients reqs in
    report w;
    w
  in
  let cold1 = wave "cold-j1" 1 true in
  let cold4 = wave "cold-j4" 4 true in
  let warm4 = wave "warm-j4" 4 false in
  let failures = ref [] in
  let check cond msg = if not cond then failures := msg :: !failures in
  List.iter
    (fun w ->
      let unanswered =
        Array.fold_left (fun acc b -> if b = "" then acc + 1 else acc) 0 w.w_bodies
      in
      check (unanswered = 0)
        (Printf.sprintf "%s: %d requests unanswered" w.w_label unanswered))
    [ cold1; cold4; warm4 ];
  let mismatches a b =
    let m = ref 0 in
    Array.iteri (fun i s -> if s <> b.w_bodies.(i) then incr m) a.w_bodies;
    !m
  in
  let m14 = mismatches cold1 cold4 in
  let m1w = mismatches cold1 warm4 in
  check (m14 = 0)
    (Printf.sprintf "cold -j1 vs cold -j4: %d response bodies differ" m14);
  check (m1w = 0)
    (Printf.sprintf "cold -j1 vs warm -j4: %d response bodies differ" m1w);
  let warm_rate = hit_rate warm4 in
  check (warm_rate > 0.5)
    (Printf.sprintf "warm hit rate %.3f is not > 0.5" warm_rate);
  let wave_json w =
    Ba_util.Json.Obj
      [
        ("label", Ba_util.Json.String w.w_label);
        ("jobs", Ba_util.Json.Int w.w_jobs);
        ("cold", Ba_util.Json.Bool w.w_cold);
        ("wall_s", Ba_util.Json.Float w.w_wall_s);
        ( "throughput_rps",
          Ba_util.Json.Float (float_of_int requests /. w.w_wall_s) );
        ("overload_retries", Ba_util.Json.Int w.w_retries);
        ("cache_hits", Ba_util.Json.Int w.w_hits);
        ("cache_misses", Ba_util.Json.Int w.w_misses);
        ("cache_hit_rate", Ba_util.Json.Float (hit_rate w));
        ("server", w.w_server);
      ]
  in
  let json =
    Ba_util.Json.Obj
      [
        ("schema", Ba_util.Json.String "ba-serve-bench/1");
        ("clients", Ba_util.Json.Int clients);
        ("requests", Ba_util.Json.Int requests);
        ( "mix",
          Ba_util.Json.List
            (List.map (fun k -> Ba_util.Json.String (P.kind_name k)) mix) );
        ("max_steps", Ba_util.Json.Int serve_steps);
        ("waves", Ba_util.Json.List (List.map wave_json [ cold1; cold4; warm4 ]));
        ("identical_cold_j1_vs_j4", Ba_util.Json.Bool (m14 = 0));
        ("identical_cold_vs_warm", Ba_util.Json.Bool (m1w = 0));
        ("warm_hit_rate", Ba_util.Json.Float warm_rate);
      ]
  in
  let path = next_bench_path () in
  let oc = open_out path in
  output_string oc (Ba_util.Json.to_string json);
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s\n" path;
  match List.rev !failures with
  | [] -> ()
  | fs ->
    List.iter (fun msg -> Printf.eprintf "bench serve: FAILED: %s\n" msg) fs;
    exit 1

let run_tables () =
  let registry = Ba_obs.Registry.create () in
  let evals, stats =
    Ba_obs.Registry.with_registry registry (fun () ->
        Ba_report.Harness.evaluate_suite_timed Ba_workloads.Spec.all)
  in
  print_endline "== Table 1: branch cost model (cycles) ==";
  print_string (Ba_report.Tables.table1 ());
  print_endline "\n== Table 2: measured attributes of the traced programs ==";
  print_string (Ba_report.Tables.table2 evals);
  print_endline "\n== Table 3: relative CPI, static prediction architectures ==";
  print_string (Ba_report.Tables.table3 evals);
  print_endline "\n== Table 4: relative CPI, dynamic prediction architectures ==";
  print_string (Ba_report.Tables.table4 evals);
  print_endline "\n== Figure 4: relative execution time, Alpha 21064 model ==";
  print_string (Ba_report.Tables.fig4 evals);
  (* Machine-readable timing record for tracking evaluation cost across
     commits; one JSON object per run on a line of its own. *)
  print_endline "\n== Evaluation timings (JSON) ==";
  print_endline (Ba_util.Json.to_string (Ba_par.Stats.to_json stats));
  (* Per-run pipeline metrics record, with wall-clock span times included
     (this record tracks cost across commits, it is not diffed). *)
  print_endline "\n== Pipeline metrics (JSON) ==";
  print_string (Ba_obs.Sink.emit ~times:true Ba_obs.Sink.Json registry);
  print_newline ();
  run_record ()

let () =
  (match Ba_par.Pool.check_env () with
  | Ok () -> ()
  | Error msg ->
    Printf.eprintf "bench: %s\n" msg;
    exit 2);
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match what with
  | "tables" -> run_tables ()
  | "micro" -> run_micro ()
  | "record" -> run_record ()
  | "serve" -> run_serve ()
  | "all" ->
    run_tables ();
    print_endline "\n== Bechamel microbenchmarks (time per run) ==";
    run_micro ()
  | other ->
    Printf.eprintf
      "unknown argument %S (expected: tables | micro | record | serve | all)\n"
      other;
    exit 1
