(* The metrics main.exe prints, with their units.  BENCHMARK.json lists
   the same names and units; a test keeps the two in step. *)

let end_to_end =
  [
    ("throughput_rps", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("rel_cpi_try15", "ratio");
    ("rel_cpi_greedy", "ratio");
    ("rel_cpi_exttsp", "ratio");
    ("rel_cpi_anneal", "ratio");
  ]

(* Self times and allocations of the traced run's spans. *)
let span_metrics =
  [
    ("sim.simulate.self_ms", "sim.simulate");
    ("sim.alpha.self_ms", "sim.alpha");
    ("trace.record.self_ms", "trace.record");
    ("core.align.greedy.self_ms", "core.align.greedy");
    ("core.align.cost.self_ms", "core.align.cost");
    ("core.align.try15.self_ms", "core.align.try15");
    ("core.align.exttsp.self_ms", "core.align.exttsp");
    ("delta.anneal.self_ms", "delta.anneal");
    ("delta.eval.self_ms", "delta.eval");
    ("delta.model.self_ms", "delta.model");
    ("verify.pipeline.self_ms", "verify.pipeline");
    ("conflict.analyze.self_ms", "conflict.analyze");
    ("layout.image.self_ms", "layout.image");
    ("predict.likely.self_ms", "predict.likely");
    ("report.tables.self_ms", "report.tables");
    ("serve.decode.self_ms", "serve.decode");
    ("serve.encode.self_ms", "serve.encode");
    ("serve.handler.self_ms", "serve.handler");
  ]

let alloc_metrics =
  [ ("sim.simulate.alloc_mw", "sim.simulate"); ("trace.record.alloc_mw", "trace.record") ]

(* Ba_obs counters read from the registry installed around the traced
   calls. *)
let counter_metrics =
  [ "exec.trace.steps"; "exec.trace.replays"; "exec.engine.steps"; "core.exttsp.merges" ]

(* Read from the running server (metrics request, /proc) and measured at
   the client; zero on reproduce, which serves nothing. *)
let serve_metrics =
  [
    ("serve.queue_wait_p50_ms", "ms");
    ("serve.queue_wait_p95_ms", "ms");
    ("serve.service_p50_ms", "ms");
    ("serve.service_p95_ms", "ms");
    ("serve.batch_mean", "requests");
    ("serve.overloaded", "count");
    ("serve.cpu_ms_per_req", "ms");
    ("serve.align.p50_ms", "ms");
    ("serve.simulate.p50_ms", "ms");
    ("serve.verify.p50_ms", "ms");
    ("serve.analyze.p50_ms", "ms");
  ]

let per_layer =
  List.map (fun (n, _) -> (n, "ms")) span_metrics
  @ List.map (fun (n, _) -> (n, "Mwords")) alloc_metrics
  @ List.map (fun n -> (n, "count")) counter_metrics
  @ serve_metrics
  @ [
      ("par.lru.hit_ratio", "ratio");
      ("gc.alloc_mw", "Mwords");
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("host.steal_pct", "%");
      ("tracing.overhead_pct", "%");
    ]
