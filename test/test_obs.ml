(* Tests for Ba_obs: the metric catalogue, registries and their task-order
   merge, span nesting, the sinks, and the no-registry no-op contract the
   whole pipeline's instrumentation relies on. *)

(* Handles under test.  The catalogue is process-global and
   first-registration-wins, so these names are namespaced away from the
   pipeline's real metrics. *)
let c_a = Ba_obs.Counter.make ~unit_:"events" "test.obs.a"
let c_b = Ba_obs.Counter.make ~unit_:"events" "test.obs.b"
let g_x = Ba_obs.Gauge.make ~unit_:"entries" "test.obs.x"
let h_d = Ba_obs.Histogram.make ~buckets:[| 1; 2; 4 |] "test.obs.d"
let c_noisy = Ba_obs.Counter.make ~volatile:true "test.obs.noisy"

(* -- Catalogue -------------------------------------------------------------- *)

let test_catalogue_first_registration_wins () =
  let again = Ba_obs.Counter.make ~unit_:"other-unit" "test.obs.a" in
  Alcotest.(check string) "same name, same handle" (Ba_obs.Counter.name c_a)
    (Ba_obs.Counter.name again);
  match Ba_obs.Catalogue.find "test.obs.a" with
  | Some def ->
    Alcotest.(check string) "original unit survives" "events"
      def.Ba_obs.Catalogue.unit_
  | None -> Alcotest.fail "registered metric not found"

let test_catalogue_kind_mismatch_raises () =
  Alcotest.(check bool) "counter name reused as gauge raises" true
    (try
       ignore (Ba_obs.Gauge.make "test.obs.a");
       false
     with Invalid_argument _ -> true)

let test_catalogue_rejects_bad_names () =
  Alcotest.(check bool) "empty name" true
    (try
       ignore (Ba_obs.Counter.make "");
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "whitespace" true
    (try
       ignore (Ba_obs.Counter.make "has space");
       false
     with Invalid_argument _ -> true)

(* -- Registry --------------------------------------------------------------- *)

let test_noop_without_registry () =
  Alcotest.(check bool) "no registry installed" true
    (Ba_obs.Registry.current () = None);
  (* These must be cheap no-ops, not crashes. *)
  Ba_obs.Counter.incr c_a;
  Ba_obs.Gauge.set g_x 7;
  Ba_obs.Histogram.observe h_d 3;
  Ba_obs.Span.with_ "ghost" (fun () -> ());
  let r = Ba_obs.Registry.create () in
  Alcotest.(check bool) "fresh registry untouched" true (Ba_obs.Registry.is_empty r)

let test_collects_inside_with_registry () =
  let r = Ba_obs.Registry.create () in
  Ba_obs.Registry.with_registry r (fun () ->
      Ba_obs.Counter.incr c_a;
      Ba_obs.Counter.add c_a 4;
      Ba_obs.Counter.incr c_b;
      Ba_obs.Gauge.set g_x 3;
      Ba_obs.Gauge.set g_x 9;
      Ba_obs.Histogram.observe h_d 2);
  Ba_obs.Counter.incr c_a;
  (* outside again: dropped *)
  Alcotest.(check int) "counter a" 5 (Ba_obs.Registry.counter_value r "test.obs.a");
  Alcotest.(check int) "counter b" 1 (Ba_obs.Registry.counter_value r "test.obs.b");
  Alcotest.(check int) "unknown counter reads 0" 0
    (Ba_obs.Registry.counter_value r "test.obs.never");
  Alcotest.(check (option int)) "gauge keeps last write" (Some 9)
    (Ba_obs.Registry.gauge_value r "test.obs.x")

let test_with_registry_restores_on_exception () =
  let outer = Ba_obs.Registry.create () in
  Ba_obs.Registry.with_registry outer (fun () ->
      let inner = Ba_obs.Registry.create () in
      (try Ba_obs.Registry.with_registry inner (fun () -> failwith "boom")
       with Failure _ -> ());
      Ba_obs.Counter.incr c_a);
  Alcotest.(check int) "outer registry collected after inner raised" 1
    (Ba_obs.Registry.counter_value outer "test.obs.a")

let test_histogram_bucket_boundaries () =
  let r = Ba_obs.Registry.create () in
  Ba_obs.Registry.with_registry r (fun () ->
      List.iter (Ba_obs.Histogram.observe h_d) [ 0; 1; 2; 3; 4; 5; 100 ]);
  match Ba_obs.Registry.histogram_snapshot r "test.obs.d" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
    (* bounds [1;2;4]: 0,1 -> le=1; 2 -> le=2; 3,4 -> le=4; 5,100 -> overflow *)
    Alcotest.(check (array int)) "bucket counts" [| 2; 1; 2; 2 |]
      h.Ba_obs.Registry.counts;
    Alcotest.(check int) "total" 7 h.Ba_obs.Registry.total;
    Alcotest.(check int) "sum" 115 h.Ba_obs.Registry.sum;
    Alcotest.(check int) "max" 100 h.Ba_obs.Registry.max_value

let test_merge_in_task_order () =
  let parent = Ba_obs.Registry.create () in
  let t1 = Ba_obs.Registry.create () in
  let t2 = Ba_obs.Registry.create () in
  Ba_obs.Registry.with_registry parent (fun () -> Ba_obs.Counter.add c_a 100);
  Ba_obs.Registry.with_registry t1 (fun () ->
      Ba_obs.Counter.add c_a 10;
      Ba_obs.Gauge.set g_x 1;
      Ba_obs.Histogram.observe h_d 1);
  Ba_obs.Registry.with_registry t2 (fun () ->
      Ba_obs.Counter.add c_a 1;
      Ba_obs.Gauge.set g_x 2;
      Ba_obs.Histogram.observe h_d 3);
  Ba_obs.Registry.merge_into ~into:parent t1;
  Ba_obs.Registry.merge_into ~into:parent t2;
  Alcotest.(check int) "counters sum" 111
    (Ba_obs.Registry.counter_value parent "test.obs.a");
  Alcotest.(check (option int)) "gauge takes last task-order write" (Some 2)
    (Ba_obs.Registry.gauge_value parent "test.obs.x");
  (match Ba_obs.Registry.histogram_snapshot parent "test.obs.d" with
  | Some h ->
    Alcotest.(check int) "histograms merge bucketwise" 2 h.Ba_obs.Registry.total;
    Alcotest.(check int) "merged max" 3 h.Ba_obs.Registry.max_value
  | None -> Alcotest.fail "merged histogram missing");
  (* A gauge never set in the source must not clobber the destination. *)
  let t3 = Ba_obs.Registry.create () in
  Ba_obs.Registry.merge_into ~into:parent t3;
  Alcotest.(check (option int)) "unset source gauge leaves destination" (Some 2)
    (Ba_obs.Registry.gauge_value parent "test.obs.x")

(* -- Spans ------------------------------------------------------------------ *)

let test_span_nesting_and_counts () =
  let r = Ba_obs.Registry.create () in
  Ba_obs.Registry.with_registry r (fun () ->
      for _ = 1 to 3 do
        Ba_obs.Span.with_ "outer" (fun () ->
            Ba_obs.Span.with_ "inner" (fun () -> ());
            Ba_obs.Span.with_ "inner" (fun () -> ()))
      done;
      Ba_obs.Span.with_ "solo" (fun () -> ()));
  match Ba_obs.Registry.spans r with
  | [ outer; solo ] ->
    Alcotest.(check string) "outer name" "outer" outer.Ba_obs.Registry.name;
    Alcotest.(check int) "outer visits" 3 outer.Ba_obs.Registry.count;
    (match outer.Ba_obs.Registry.children with
    | [ inner ] ->
      Alcotest.(check string) "inner name" "inner" inner.Ba_obs.Registry.name;
      Alcotest.(check int) "inner visits accumulate" 6 inner.Ba_obs.Registry.count
    | _ -> Alcotest.fail "expected one inner child");
    Alcotest.(check string) "solo name" "solo" solo.Ba_obs.Registry.name;
    Alcotest.(check bool) "seconds non-negative" true
      (outer.Ba_obs.Registry.seconds >= 0.0)
  | spans ->
    Alcotest.fail (Printf.sprintf "expected 2 top-level spans, got %d" (List.length spans))

let test_span_closed_on_exception () =
  let r = Ba_obs.Registry.create () in
  Ba_obs.Registry.with_registry r (fun () ->
      (try Ba_obs.Span.with_ "failing" (fun () -> failwith "boom")
       with Failure _ -> ());
      (* If the failing span leaked open, this would nest under it. *)
      Ba_obs.Span.with_ "after" (fun () -> ()));
  let names = List.map (fun s -> s.Ba_obs.Registry.name) (Ba_obs.Registry.spans r) in
  Alcotest.(check (list string)) "both top-level" [ "after"; "failing" ] names

let test_span_merge_under_open_cursor () =
  let parent = Ba_obs.Registry.create () in
  let task = Ba_obs.Registry.create () in
  Ba_obs.Registry.with_registry task (fun () ->
      Ba_obs.Span.with_ "work" (fun () -> ()));
  Ba_obs.Registry.with_registry parent (fun () ->
      Ba_obs.Span.with_ "batch" (fun () ->
          Ba_obs.Registry.merge_into ~into:parent task));
  match Ba_obs.Registry.spans parent with
  | [ batch ] ->
    Alcotest.(check string) "top level is the open span" "batch"
      batch.Ba_obs.Registry.name;
    Alcotest.(check (list string)) "task spans nest under it" [ "work" ]
      (List.map (fun s -> s.Ba_obs.Registry.name) batch.Ba_obs.Registry.children)
  | _ -> Alcotest.fail "expected a single top-level span"

let test_exit_span_mismatch_raises () =
  let r = Ba_obs.Registry.create () in
  let outer = Ba_obs.Registry.enter_span r "outer" in
  let _inner = Ba_obs.Registry.enter_span r "inner" in
  Alcotest.(check bool) "closing the outer span first raises" true
    (try
       Ba_obs.Registry.exit_span r outer 0.0;
       false
     with Invalid_argument _ -> true)

(* -- Sinks ------------------------------------------------------------------ *)

let collected () =
  let r = Ba_obs.Registry.create () in
  Ba_obs.Registry.with_registry r (fun () ->
      Ba_obs.Counter.add c_a 3;
      Ba_obs.Counter.incr c_noisy;
      Ba_obs.Gauge.set g_x 5;
      Ba_obs.Histogram.observe h_d 2;
      Ba_obs.Span.with_ "stage" (fun () -> ()));
  r

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
  scan 0

let test_json_sink_shape_and_elisions () =
  let r = collected () in
  let json = Ba_util.Json.to_string (Ba_obs.Sink.to_json r) in
  Alcotest.(check bool) "counter present" true
    (contains ~needle:{|"test.obs.a":3|} json);
  Alcotest.(check bool) "gauge present" true (contains ~needle:{|"test.obs.x":5|} json);
  Alcotest.(check bool) "histogram bucket rendered" true
    (contains ~needle:{|"buckets":[{"le":2,"count":1}]|} json);
  Alcotest.(check bool) "span present without seconds" true
    (contains ~needle:{|{"name":"stage","count":1}|} json);
  Alcotest.(check bool) "volatile metric elided by default" false
    (contains ~needle:"test.obs.noisy" json);
  Alcotest.(check bool) "wall seconds elided by default" false
    (contains ~needle:"seconds" json);
  (* What the JSON sink elides, the ASCII sink shows. *)
  let full = Ba_obs.Sink.render r in
  Alcotest.(check bool) "volatile included in the ascii sink" true
    (contains ~needle:"test.obs.noisy" full);
  Alcotest.(check bool) "seconds included in the ascii sink" true
    (contains ~needle:"stage: 1 (" full && contains ~needle:"s)" full)

let test_json_sink_deterministic () =
  let j () = Ba_util.Json.to_string (Ba_obs.Sink.to_json (collected ())) in
  Alcotest.(check string) "two collections render identically" (j ()) (j ())

let test_ascii_sink () =
  let r = collected () in
  let s = Ba_obs.Sink.render r in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " rendered") true (contains ~needle s))
    [ "test.obs.a"; "test.obs.x"; "test.obs.d"; "test.obs.noisy"; "stage"; "events" ]

let test_noop_sink () =
  Alcotest.(check string) "noop emits nothing" ""
    (Ba_obs.Sink.emit Ba_obs.Sink.Noop (collected ()));
  Alcotest.(check string) "empty registry renders empty" ""
    (Ba_obs.Sink.render (Ba_obs.Registry.create ()))

(* -- Domains and the pool --------------------------------------------------- *)

let test_registry_is_domain_local () =
  let r = Ba_obs.Registry.create () in
  Ba_obs.Registry.with_registry r (fun () ->
      (* A spawned domain has no registry: its increments vanish rather than
         racing into ours. *)
      Domain.join (Domain.spawn (fun () -> Ba_obs.Counter.add c_a 1000));
      Ba_obs.Counter.incr c_a);
  Alcotest.(check int) "only this domain's increment counted" 1
    (Ba_obs.Registry.counter_value r "test.obs.a")

let pool_totals jobs =
  let r = Ba_obs.Registry.create () in
  Ba_obs.Registry.with_registry r (fun () ->
      Ba_par.Pool.with_pool ~jobs (fun pool ->
          ignore
            (Ba_par.Pool.map pool
               (fun x ->
                 Ba_obs.Counter.add c_a x;
                 Ba_obs.Gauge.set g_x x;
                 Ba_obs.Histogram.observe h_d (x mod 5);
                 x)
               (List.init 64 (fun i -> i)))));
  ( Ba_obs.Registry.counter_value r "test.obs.a",
    Ba_obs.Registry.gauge_value r "test.obs.x",
    Ba_obs.Registry.histogram_snapshot r "test.obs.d",
    Ba_util.Json.to_string (Ba_obs.Sink.to_json r) )

let test_pool_merge_deterministic () =
  let c1, g1, h1, j1 = pool_totals 1 in
  let c4, g4, h4, j4 = pool_totals 4 in
  Alcotest.(check int) "counter total at -j1" (64 * 63 / 2) c1;
  Alcotest.(check int) "counter total matches at -j4" c1 c4;
  Alcotest.(check (option int)) "gauge keeps the last task's write" (Some 63) g1;
  Alcotest.(check (option int)) "gauge identical at -j4" g1 g4;
  Alcotest.(check bool) "histograms identical" true (h1 = h4);
  Alcotest.(check string) "json byte-identical -j1 vs -j4" j1 j4

(* -- Cross-invariants: instrumentation vs the simulator's own books --------- *)

let invariant_archs =
  [
    Ba_sim.Bep.Static_fallthrough;
    Ba_sim.Bep.Static_btfnt;
    Ba_sim.Bep.pht_direct;
    Ba_sim.Bep.gshare;
    Ba_sim.Bep.btb64;
    Ba_sim.Bep.btb256;
  ]

(* For every workload in the suite: the sim.bep.* counters must agree
   exactly with what the simulators themselves report — the aggregate
   penalty-cycle counters sum to the harness's total BEP, each per-arch
   counter equals that architecture's [Bep.bep], and the event counters
   match the [counts] books.  Any charging site added to one side but not
   the other breaks this for some workload. *)
let test_bep_penalty_attribution () =
  List.iter
    (fun (w : Ba_workloads.Spec.t) ->
      let r = Ba_obs.Registry.create () in
      let out =
        Ba_obs.Registry.with_registry r (fun () ->
            let program = w.Ba_workloads.Spec.build () in
            Ba_sim.Runner.simulate ~max_steps:20_000 ~archs:invariant_archs
              (Ba_layout.Image.original program))
      in
      let v = Ba_obs.Registry.counter_value r in
      let sims = out.Ba_sim.Runner.sims in
      let total f = Array.fold_left (fun acc (_, s) -> acc + f s) 0 sims in
      let name = w.Ba_workloads.Spec.name in
      Array.iter
        (fun (arch, sim) ->
          let label = Ba_sim.Bep.arch_label arch in
          Alcotest.(check int)
            (Printf.sprintf "%s/%s: per-arch counter = Bep.bep" name label)
            (Ba_sim.Bep.bep sim)
            (v (Printf.sprintf "sim.bep.arch.%s.penalty_cycles" label)))
        sims;
      Alcotest.(check int)
        (name ^ ": misfetch+mispredict cycles sum to the total penalty")
        (total Ba_sim.Bep.bep)
        (v "sim.bep.misfetch_cycles" + v "sim.bep.mispredict_cycles");
      Alcotest.(check int) (name ^ ": misfetch events")
        (total (fun s -> (Ba_sim.Bep.counts s).Ba_sim.Bep.misfetches))
        (v "sim.bep.misfetch");
      Alcotest.(check int) (name ^ ": mispredict events")
        (total (fun s -> (Ba_sim.Bep.counts s).Ba_sim.Bep.mispredicts))
        (v "sim.bep.mispredict");
      Alcotest.(check int) (name ^ ": conditional class counter")
        (total (fun s -> (Ba_sim.Bep.counts s).Ba_sim.Bep.cond))
        (v "sim.bep.class.cond");
      Alcotest.(check int) (name ^ ": correct-conditional class counter")
        (total (fun s -> (Ba_sim.Bep.counts s).Ba_sim.Bep.cond_correct))
        (v "sim.bep.class.cond_correct");
      Alcotest.(check int) (name ^ ": return class counter")
        (total (fun s -> (Ba_sim.Bep.counts s).Ba_sim.Bep.rets))
        (v "sim.bep.class.ret"))
    Ba_workloads.Spec.all

let suites =
  [
    ( "obs.catalogue",
      [
        Alcotest.test_case "first registration wins" `Quick
          test_catalogue_first_registration_wins;
        Alcotest.test_case "kind mismatch raises" `Quick
          test_catalogue_kind_mismatch_raises;
        Alcotest.test_case "bad names rejected" `Quick test_catalogue_rejects_bad_names;
      ] );
    ( "obs.registry",
      [
        Alcotest.test_case "no-op without a registry" `Quick test_noop_without_registry;
        Alcotest.test_case "collects inside with_registry" `Quick
          test_collects_inside_with_registry;
        Alcotest.test_case "restores on exception" `Quick
          test_with_registry_restores_on_exception;
        Alcotest.test_case "histogram bucket boundaries" `Quick
          test_histogram_bucket_boundaries;
        Alcotest.test_case "merge in task order" `Quick test_merge_in_task_order;
      ] );
    ( "obs.span",
      [
        Alcotest.test_case "nesting and visit counts" `Quick
          test_span_nesting_and_counts;
        Alcotest.test_case "closed on exception" `Quick test_span_closed_on_exception;
        Alcotest.test_case "merge lands under open cursor" `Quick
          test_span_merge_under_open_cursor;
        Alcotest.test_case "exit mismatch raises" `Quick test_exit_span_mismatch_raises;
      ] );
    ( "obs.sink",
      [
        Alcotest.test_case "json shape and elisions" `Quick
          test_json_sink_shape_and_elisions;
        Alcotest.test_case "json deterministic" `Quick test_json_sink_deterministic;
        Alcotest.test_case "ascii render" `Quick test_ascii_sink;
        Alcotest.test_case "noop" `Quick test_noop_sink;
      ] );
    ( "obs.domains",
      [
        Alcotest.test_case "registry is domain-local" `Quick
          test_registry_is_domain_local;
        Alcotest.test_case "pool merge deterministic" `Quick
          test_pool_merge_deterministic;
      ] );
    ( "obs.invariants",
      [
        Alcotest.test_case "BEP penalty attribution, all workloads" `Slow
          test_bep_penalty_attribution;
      ] );
  ]
