(* Golden-snapshot wall.

   Two families of snapshots live in test/golden/:

   - [tables.expected]: the 24-workload x 4-algorithm relative-CPI tables
     (Tables 2-4 and the Figure 4 series) at the standard 20k-step test
     budget, rendered with NO metrics registry installed — so any
     instrumentation that perturbs the experiment output, or any
     unintentional change to the numbers themselves, fails the build.

   - [metrics_<arch>.expected]: the deterministic metrics JSON for one
     canonical workload per branch architecture, pipeline spans included —
     so any change to a metric name, a counter's value, a histogram's
     bucketing or the span tree is a visible diff, not silent drift.

   Regenerate after an intentional change with:

     BA_BLESS=1 dune runtest

   and commit the updated .expected files with the change that caused
   them. *)

let max_steps = 20_000
let bless = match Sys.getenv_opt "BA_BLESS" with Some ("" | "0") | None -> false | Some _ -> true
let failures = ref 0

let dir =
  if Array.length Sys.argv < 2 then (
    prerr_endline "usage: golden <golden-dir>";
    exit 2)
  else Sys.argv.(1)

(* Under dune the action runs inside _build/<context>/ and [dir] names the
   build-tree copies of the snapshots — right for reading, wrong for
   blessing: dune never mirrors writes back to the source tree.  Map the
   path back to the source directory for BA_BLESS. *)
let bless_dir =
  let abs = if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir else dir in
  let needle = "/_build/" in
  let rec find i =
    if i + String.length needle > String.length abs then None
    else if String.sub abs i (String.length needle) = needle then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> abs
  | Some i ->
    let root = String.sub abs 0 i in
    let rest = String.sub abs (i + String.length needle)
        (String.length abs - i - String.length needle) in
    (* drop the context component ("default/...") *)
    (match String.index_opt rest '/' with
    | Some j ->
      Filename.concat root (String.sub rest (j + 1) (String.length rest - j - 1))
    | None -> abs)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let first_diff expected actual =
  let el = String.split_on_char '\n' expected and al = String.split_on_char '\n' actual in
  let rec scan i = function
    | e :: es, a :: als -> if e = a then scan (i + 1) (es, als) else Some (i, e, a)
    | e :: _, [] -> Some (i, e, "<missing>")
    | [], a :: _ -> Some (i, "<missing>", a)
    | [], [] -> None
  in
  scan 1 (el, al)

let check name actual =
  let path = Filename.concat dir (name ^ ".expected") in
  if bless then begin
    let target = Filename.concat bless_dir (name ^ ".expected") in
    write_file target actual;
    Printf.printf "blessed %s (%d bytes)\n%!" target (String.length actual)
  end
  else if not (Sys.file_exists path) then begin
    incr failures;
    Printf.printf "FAIL %s: golden file missing; run BA_BLESS=1 dune runtest\n%!" name
  end
  else
    let expected = read_file path in
    if expected = actual then Printf.printf "ok   %s\n%!" name
    else begin
      incr failures;
      (match first_diff expected actual with
      | Some (line, e, a) ->
        Printf.printf
          "FAIL %s: output drifted from %s\n  first difference at line %d:\n  \
           expected: %s\n  actual:   %s\n"
          name path line e a
      | None -> Printf.printf "FAIL %s: output drifted from %s\n" name path);
      Printf.printf
        "  if the change is intentional, rebless with BA_BLESS=1 dune runtest\n%!"
    end

(* -- 24-workload relative-CPI tables, metrics collection off --------------- *)

let tables () =
  assert (Ba_obs.Registry.current () = None);
  let evals = Ba_report.Harness.evaluate_suite ~max_steps Ba_workloads.Spec.all in
  String.concat "\n"
    [
      "== Table 2: measured program attributes ==";
      Ba_report.Tables.table2 evals;
      "== Table 3: static architectures, relative CPI ==";
      Ba_report.Tables.table3 evals;
      "== Table 4: dynamic architectures, relative CPI ==";
      Ba_report.Tables.table4 evals;
      "== Figure 4: Alpha 21064 relative execution time ==";
      Ba_report.Tables.fig4 evals;
    ]

(* -- Metrics JSON, one canonical workload per architecture ----------------- *)

(* Each case runs the full pipeline (profile -> align -> simulate) for one
   workload under one branch architecture, with a fresh registry around the
   whole thing; the snapshot is the deterministic JSON (volatile metrics and
   wall seconds elided by the sink). *)
let metrics_cases =
  [
    ("fallthrough", "compress", Ba_core.Cost_model.Fallthrough,
     fun _ _ -> Ba_sim.Bep.Static_fallthrough);
    ("btfnt", "espresso", Ba_core.Cost_model.Btfnt,
     fun _ _ -> Ba_sim.Bep.Static_btfnt);
    ("likely", "li", Ba_core.Cost_model.Likely,
     fun image profile ->
       Ba_sim.Bep.Static_likely (Ba_predict.Likely_bits.build image profile));
    ("pht-direct", "eqntott", Ba_core.Cost_model.Pht,
     fun _ _ -> Ba_sim.Bep.pht_direct);
    ("pht-gshare", "gcc", Ba_core.Cost_model.Pht,
     fun _ _ -> Ba_sim.Bep.gshare);
    ("btb-256x4", "sc", Ba_core.Cost_model.Btb,
     fun _ _ -> Ba_sim.Bep.btb256);
  ]

let metrics_json (slug, workload, cost_arch, make_arch) =
  let spec =
    match Ba_workloads.Spec.by_name workload with
    | Some w -> w
    | None -> failwith ("unknown canonical workload " ^ workload)
  in
  let registry = Ba_obs.Registry.create () in
  Ba_obs.Registry.with_registry registry (fun () ->
      let program = spec.Ba_workloads.Spec.build () in
      let profile = Ba_exec.Engine.profile_program ~max_steps program in
      let image = Ba_core.Align.image (Ba_core.Align.Tryn 15) ~arch:cost_arch profile in
      ignore
        (Ba_sim.Runner.simulate ~max_steps ~archs:[ make_arch image profile ] image
          : Ba_sim.Runner.outcome));
  (slug, Ba_util.Json.to_string (Ba_obs.Sink.to_json registry) ^ "\n")

(* -- ExtTSP and inter-procedural layout report ----------------------------- *)

let spec_named name =
  match Ba_workloads.Spec.by_name name with
  | Some w -> w
  | None -> failwith ("unknown canonical workload " ^ name)

(* A four-workload subset keeps the branch-and-bound gap search and the
   stitched-image verification affordable; the full 24-workload ExtTsp
   columns are already pinned through [tables]. *)
let exttsp_subset = [ "compress"; "eqntott"; "li"; "wave5" ]

let exttsp_report () =
  assert (Ba_obs.Registry.current () = None);
  let specs = List.map spec_named exttsp_subset in
  let evals = Ba_report.Harness.evaluate_suite ~max_steps specs in
  let gap_rows = Ba_report.Gap.evaluate_suite ~max_steps specs in
  let ip_rows = Ba_report.Interproc.evaluate_suite ~max_steps specs in
  List.iter
    (fun (r : Ba_report.Interproc.row) ->
      if not r.Ba_report.Interproc.verified then
        failwith
          ("exttsp_report: stitched " ^ r.Ba_report.Interproc.workload.Ba_workloads.Spec.name
         ^ " failed verification"))
    ip_rows;
  (* The snapshot must pin a live inter-procedural win: at least one
     verified workload where stitching strictly reduces some
     architecture's penalty cycles. *)
  let wins (r : Ba_report.Interproc.row) =
    let w = ref false in
    Array.iteri
      (fun i p -> if r.Ba_report.Interproc.stitched.(i) < p then w := true)
      r.Ba_report.Interproc.plain;
    !w
  in
  if not (List.exists wins ip_rows) then
    failwith "exttsp_report: no inter-procedural win in the subset";
  String.concat "\n"
    [
      "== ExtTsp subset: static architectures, relative CPI ==";
      Ba_report.Tables.table3 evals;
      "== ExtTsp subset: dynamic architectures, relative CPI ==";
      Ba_report.Tables.table4 evals;
      "== Optimality gap, ExtTsp included ==";
      Ba_report.Gap.render gap_rows;
      "== Inter-procedural layout: penalty cycles, plain>stitched ==";
      Ba_report.Interproc.render ip_rows;
    ]

(* -- Metrics JSON for one canonical inter-procedural pipeline -------------- *)

(* The full stitched pipeline (profile+trace -> ExtTsp -> build_interproc
   -> replay) under a fresh registry: the ExtTsp guard counter, the
   stitcher's split/cold counters and the span tree are all pinned. *)
let metrics_interproc () =
  let spec = spec_named "wave5" in
  let registry = Ba_obs.Registry.create () in
  Ba_obs.Registry.with_registry registry (fun () ->
      let program = spec.Ba_workloads.Spec.build () in
      let profile, trace =
        Ba_trace.Record.profile_and_record ~max_steps program
      in
      let decisions = Ba_core.Align.align_program Ba_core.Align.ExtTsp profile in
      let ip = Ba_layout.Image.build_interproc ~profile program decisions in
      ignore
        (Ba_sim.Runner.simulate ~max_steps ~trace
           ~archs:[ Ba_sim.Bep.Static_btfnt ]
           ip.Ba_layout.Image.image
          : Ba_sim.Runner.outcome));
  Ba_util.Json.to_string (Ba_obs.Sink.to_json registry) ^ "\n"

(* -- Canonical conflict report --------------------------------------------- *)

(* The default-suite static conflict analysis of one workload's original
   image — the analyze subcommand's table and JSON, pinned byte-for-byte.
   wave5's unaligned layout genuinely collides (nonzero conflict weight in
   several structures), so the snapshot pins real conflict lists, not just
   empty maps.  The analysis is pure arithmetic over the address map, so
   any drift here means the indexing functions, the site extraction, or
   the report rendering changed. *)
let conflict_report () =
  let spec =
    match Ba_workloads.Spec.by_name "wave5" with
    | Some w -> w
    | None -> failwith "unknown canonical workload wave5"
  in
  let program, profile = Ba_workloads.Profiled.get ~max_steps spec in
  let image = Ba_layout.Image.original ~profile program in
  let reports = Ba_conflict.Analyze.analyze ~profile image in
  String.concat "\n"
    [
      "== wave5, original image: static predictor conflicts ==";
      Ba_conflict.Analyze.render reports;
      Ba_util.Json.to_string (Ba_conflict.Analyze.to_json reports) ^ "\n";
    ]

(* -- Canonical bound report ------------------------------------------------ *)

(* The abstract-interpretation cost bounds of one workload under BT/FNT,
   for both the Try15 layout and the original one, plus the bound lint of
   the Try15 cell.  wave5's Try15/BT-FNT layout is genuinely certified
   suboptimal by the static bounds alone (orig's upper bound sits below
   its lower bound), so the snapshot pins a live
   [bound/provably-suboptimal] finding, not just interval arithmetic. *)
let bound_report () =
  let spec =
    match Ba_workloads.Spec.by_name "wave5" with
    | Some w -> w
    | None -> failwith "unknown canonical workload wave5"
  in
  let program, profile = Ba_workloads.Profiled.get ~max_steps spec in
  let analyze image =
    Ba_bound.Analyze.analyze
      ~arch:
        (Ba_sim.Bep.arch_of ~image ~profile
           (Ba_sim.Bep.of_model Ba_core.Cost_model.Btfnt))
      ~profile image
  in
  let detail (a : Ba_bound.Analyze.t) =
    String.concat "\n"
      (List.map
         (fun (r : Ba_bound.Analyze.row) ->
           Printf.sprintf "proc %d pc %-4d %-9s pooled %d weight %-6d [%d, %d]"
             r.Ba_bound.Analyze.proc r.Ba_bound.Analyze.pc r.Ba_bound.Analyze.what
             r.Ba_bound.Analyze.pooled r.Ba_bound.Analyze.weight
             r.Ba_bound.Analyze.penalty.Ba_bound.Domain.lo
             r.Ba_bound.Analyze.penalty.Ba_bound.Domain.hi)
         a.Ba_bound.Analyze.rows
      @ [
          Printf.sprintf "total [%d, %d] extra_lo %d"
            a.Ba_bound.Analyze.total.Ba_bound.Domain.lo
            a.Ba_bound.Analyze.total.Ba_bound.Domain.hi
            a.Ba_bound.Analyze.extra_lo;
        ])
  in
  let t15 =
    Ba_core.Align.image (Ba_core.Align.Tryn 15) ~arch:Ba_core.Cost_model.Btfnt
      profile
  in
  let orig = Ba_layout.Image.original ~profile program in
  let diags =
    Ba_bound.Lint.check ~algo:(Ba_delta.Algo.Core (Ba_core.Align.Tryn 15))
      ~arch:Ba_core.Cost_model.Btfnt ~profile t15
  in
  (* The optimality audit of wave5's Greedy/FALLTHROUGH layout, with the
     recorded trace handed through so the finding quotes the exact
     simulated saving (Ba_delta.Eval) next to the model's expected one —
     any drift in either pricing path is a visible diff here. *)
  let audit_findings =
    let _, _, trace = Ba_workloads.Profiled.get_traced ~max_steps spec in
    let result =
      Ba_verify.Run.verify ~arch:Ba_core.Cost_model.Fallthrough ~profile
        ~trace (Ba_delta.Algo.Core Ba_core.Align.Greedy)
    in
    result.Ba_verify.Run.audit
  in
  String.concat "\n"
    ([
       "== wave5, Try15/BT-FNT: static cost bounds ==";
       detail (analyze t15);
       "== wave5, orig/BT-FNT: static cost bounds ==";
       detail (analyze orig);
       "== wave5, Try15/BT-FNT: bound lint ==";
     ]
    @ List.map
        (fun d -> Format.asprintf "%a" Ba_analysis.Diagnostic.pp d)
        diags
    @ [ "== wave5, Greedy/FALLTHROUGH: optimality audit (simulator-exact) ==" ]
    @ List.map
        (fun d -> Format.asprintf "%a" Ba_analysis.Diagnostic.pp d)
        audit_findings)
  ^ "\n"

let () =
  check "tables" (tables ());
  check "exttsp_report" (exttsp_report ());
  check "metrics_interproc" (metrics_interproc ());
  check "conflict_report" (conflict_report ());
  check "bound_report" (bound_report ());
  List.iter
    (fun case ->
      let slug, json = metrics_json case in
      check ("metrics_" ^ slug) json)
    metrics_cases;
  if !failures > 0 then begin
    Printf.printf "%d golden snapshot(s) drifted\n%!" !failures;
    exit 1
  end
