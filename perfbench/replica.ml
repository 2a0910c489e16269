(* The traced run's copies of [Ba_serve.Handler.handle] and
   [Ba_report.Harness.evaluate]: the same public calls in the same order,
   each wrapped in a span named after the layer it enters.  The copies must
   produce byte-identical bodies and evaluations; the traced run checks them
   against the same expected digests as the real functions, so a copy that
   drifts from the code it mirrors fails the run. *)

open Ba_util
module Align = Ba_core.Align
module Bep = Ba_sim.Bep
module Harness = Ba_report.Harness
module Image = Ba_layout.Image
module Profiled = Ba_workloads.Profiled
module Protocol = Ba_serve.Protocol
module Runner = Ba_sim.Runner
module Spec = Ba_workloads.Spec

let sp = Spans.with_

(* A hit is a cache lookup; a miss records the trace. *)
let get_traced ~max_steps w =
  Spans.with_named (fun () ->
      let misses () = (Profiled.lru_stats ()).Ba_par.Lru.misses in
      let before = misses () in
      let r = Profiled.get_traced ~max_steps w in
      (r, if misses () > before then "trace.record" else "par.lru"))

let align_span = function
  | Align.Original -> "core.align.orig"
  | Align.Greedy -> "core.align.greedy"
  | Align.Cost -> "core.align.cost"
  | Align.Tryn n -> Printf.sprintf "core.align.try%d" n
  | Align.ExtTsp -> "core.align.exttsp"

let build ~profile program decisions =
  sp "layout.image" (fun () -> Image.build ~profile program decisions)

(* [Align.image] is [Align.align_program] followed by [Image.build]. *)
let core_image algo ~arch profile program =
  match algo with
  | Align.Original -> sp "layout.image" (fun () -> Image.original ~profile program)
  | a ->
    build ~profile program
      (sp (align_span a) (fun () -> Align.align_program a ~arch profile))

(* ------------------------------------------------------------------ *)
(* Handler.handle                                                       *)

let bep_archs =
  [
    Bep.Static_fallthrough;
    Bep.Static_btfnt;
    Bep.Pht_direct { entries = 4096 };
    Bep.Pht_gshare { entries = 4096; history_bits = 12 };
    Bep.Btb_arch { entries = 256; assoc = 4 };
  ]

type algo = Core of Align.algo | Anneal

let algo_name = function Core a -> Align.algo_name a | Anneal -> "anneal"

let core = function
  | Core a -> a
  | Anneal -> invalid_arg "this request kind does not accept the anneal search"

let decisions ~algo ~arch program profile =
  let n = Ba_ir.Program.n_procs program in
  match algo with
  | Core Align.Original ->
    Array.init n (fun p -> Ba_layout.Decision.identity (Ba_ir.Program.proc program p))
  | Core a -> sp (align_span a) (fun () -> Align.align_program a ~arch profile)
  | Anneal ->
    sp "delta.anneal" (fun () ->
        Array.init n (fun pid ->
            Ba_delta.Anneal.align_proc ~seed:0 ~sweeps:Ba_delta.Anneal.default_sweeps
              ~arch profile pid))

let header (w : Spec.t) algo arch =
  [
    ("workload", Json.String w.name);
    ("algo", Json.String algo);
    ("arch", Json.String (Ba_core.Cost_model.arch_name arch));
  ]

let align_body ~w ~algo ~arch ~max_steps =
  let program, profile, trace = get_traced ~max_steps w in
  let decisions = decisions ~algo ~arch program profile in
  let n = Ba_ir.Program.n_procs program in
  let costs =
    sp "delta.model" (fun () ->
        Array.init n (fun p ->
            Ba_delta.Model.total
              (Ba_delta.Model.create ~arch
                 ~visits:(fun b -> Ba_cfg.Profile.visits profile p b)
                 ~cond_counts:(fun b -> Ba_cfg.Profile.cond_counts profile p b)
                 (Ba_ir.Program.proc program p) decisions.(p))))
  in
  let total = Array.fold_left ( +. ) 0.0 costs in
  let procs =
    List.init n (fun p ->
        let d = decisions.(p) in
        let forced =
          List.filter_map Fun.id
            (Array.to_list
               (Array.mapi
                  (fun b leg ->
                    Option.map
                      (fun l ->
                        Json.Obj
                          [
                            ("block", Json.Int b);
                            ("leg", Json.String (Ba_layout.Decision.leg_name l));
                          ])
                      leg)
                  d.Ba_layout.Decision.neither))
        in
        Json.Obj
          [
            ("proc", Json.Int p);
            ("name", Json.String (Ba_ir.Program.proc program p).Ba_ir.Proc.name);
            ( "order",
              Json.List
                (List.map (fun b -> Json.Int b) (Array.to_list d.Ba_layout.Decision.order)) );
            ("forced", Json.List forced);
            ("cost", Json.Float costs.(p));
          ])
  in
  let spec = Ba_delta.Eval.spec_of_model arch in
  let penalty =
    sp "delta.eval" (fun () ->
        let ev = Ba_delta.Eval.create ~specs:[| spec |] profile trace decisions in
        Ba_delta.Eval.cost_arch ev 0 decisions)
  in
  Json.Obj
    (header w (algo_name algo) arch
    @ [
        ("procs", Json.List procs);
        ("total_cost", Json.Float total);
        ("penalty_model", Json.String (Ba_delta.Eval.spec_label spec));
        ("penalty_cycles", Json.Int penalty);
      ])

let simulate_body ~w ~algo ~arch ~max_steps =
  let a = core algo in
  let program, profile, trace = get_traced ~max_steps w in
  let image = core_image a ~arch profile program in
  let likely =
    sp "predict.likely" (fun () -> Ba_predict.Likely_bits.build image profile)
  in
  let out =
    sp "sim.simulate" (fun () ->
        Runner.simulate ~max_steps ~trace ~archs:(Bep.Static_likely likely :: bep_archs)
          image)
  in
  let sims =
    List.map
      (fun (arch, sim) ->
        let counts = Bep.counts sim in
        Json.Obj
          [
            ("label", Json.String (Bep.arch_label arch));
            ("accuracy", Json.Float (100.0 *. Bep.cond_accuracy sim));
            ("misfetches", Json.Int counts.Bep.misfetches);
            ("mispredicts", Json.Int counts.Bep.mispredicts);
            ("bep_cycles", Json.Int (Bep.bep sim));
          ])
      (Array.to_list out.Runner.sims)
  in
  Json.Obj
    (header w (Align.algo_name a) arch
    @ [
        ("branches", Json.Int out.Runner.result.Ba_exec.Engine.branches);
        ("insns", Json.Int out.Runner.result.Ba_exec.Engine.insns);
        ("architectures", Json.List sims);
      ])

let verify_body ~w ~algo ~arch ~max_steps =
  let a = core algo in
  let program, profile, trace = get_traced ~max_steps w in
  let result =
    sp "verify.pipeline" (fun () ->
        Ba_verify.Run.verify_pipeline ~arch ~max_steps ~profile ~trace ~audit:true
          ~algo:a program)
  in
  let diags = Ba_verify.Run.diagnostics result in
  let e, warn, i = Ba_analysis.Diagnostic.count diags in
  Json.Obj
    (header w (Align.algo_name a) arch
    @ [
        ("verified", Json.Bool result.Ba_verify.Run.verified);
        ("errors", Json.Int e);
        ("warnings", Json.Int warn);
        ("infos", Json.Int i);
        ( "certificates",
          Json.List
            (List.map Ba_verify.Certificate.to_json result.Ba_verify.Run.certificates) );
        ("diagnostics", Json.List (List.map Ba_analysis.Diagnostic.to_json diags));
      ])

let analyze_body ~w ~algo ~arch ~max_steps =
  let a = core algo in
  let program, profile, _trace = get_traced ~max_steps w in
  let image = core_image a ~arch profile program in
  let reports =
    sp "conflict.analyze" (fun () -> Ba_conflict.Analyze.analyze ~profile image)
  in
  Json.Obj
    (header w (Align.algo_name a) arch
    @ [
        ("objective", Json.Int (Ba_conflict.Analyze.objective reports));
        ("reports", Ba_conflict.Analyze.to_json reports);
      ])

let ( let* ) = Result.bind

let resolve (r : Protocol.request) =
  let* w =
    match r.workload with
    | "" -> Error "request needs a \"workload\" field"
    | name -> (
      match Spec.by_name name with
      | Some w -> Ok w
      | None -> Error (Printf.sprintf "unknown workload %S" name))
  in
  let* algo =
    match r.algo with
    | "" -> Ok (Core (Align.Tryn 15))
    | "anneal" -> Ok Anneal
    | s -> Result.map (fun a -> Core a) (Align.algo_of_name s)
  in
  let* arch =
    match r.arch with
    | "" -> Ok Ba_core.Cost_model.Btfnt
    | s -> Ba_core.Cost_model.arch_of_name s
  in
  Ok (w, algo, arch, Option.value r.max_steps ~default:Spec.default_max_steps)

(* The compute kinds of the request round; ping, metrics and tables never
   reach the copy. *)
let handle (r : Protocol.request) : Protocol.response =
  let error msg = { Protocol.rid = r.id; status = Error_ msg; body = Json.Null } in
  match resolve r with
  | Error e -> error e
  | Ok (w, algo, arch, max_steps) -> (
    match
      match r.kind with
      | Protocol.Align -> align_body ~w ~algo ~arch ~max_steps
      | Protocol.Simulate -> simulate_body ~w ~algo ~arch ~max_steps
      | Protocol.Verify -> verify_body ~w ~algo ~arch ~max_steps
      | Protocol.Analyze -> analyze_body ~w ~algo ~arch ~max_steps
      | Protocol.Ping | Protocol.Metrics | Protocol.Tables ->
        invalid_arg "the traced copy serves only align/simulate/verify/analyze"
    with
    | body -> { Protocol.rid = r.id; status = Ok_; body }
    | exception (Invalid_argument msg | Failure msg) -> error msg)

(* ------------------------------------------------------------------ *)
(* Harness.evaluate                                                     *)

let pht_direct = Bep.Pht_direct { entries = 4096 }
let gshare = Bep.Pht_gshare { entries = 4096; history_bits = 12 }
let btb64 = Bep.Btb_arch { entries = 64; assoc = 2 }
let btb256 = Bep.Btb_arch { entries = 256; assoc = 4 }

let evaluate ~max_steps (workload : Spec.t) : Harness.eval =
  let program, profile, trace = get_traced ~max_steps workload in
  let run_image ~archs image =
    let archs =
      List.map
        (function
          | `Likely ->
            Bep.Static_likely
              (sp "predict.likely" (fun () -> Ba_predict.Likely_bits.build image profile))
          | `Arch a -> a)
        archs
    in
    sp "sim.simulate" (fun () -> Runner.simulate ~max_steps ~trace ~archs image)
  in
  let cpi out ~orig_insns k =
    let _, sim = out.Runner.sims.(k) in
    Bep.relative_cpi sim ~insns:out.Runner.result.Ba_exec.Engine.insns ~orig_insns
  in
  let cpis out ~orig_insns =
    let c = cpi out ~orig_insns in
    {
      Harness.fallthrough = c 0;
      btfnt = c 1;
      likely = c 2;
      pht_direct = c 3;
      gshare = c 4;
      btb64 = c 5;
      btb256 = c 6;
    }
  in
  let aligned name ?strategy ?arch ?refine_rounds algo =
    build ~profile program
      (sp name (fun () -> Align.align_program algo ?strategy ?arch ?refine_rounds profile))
  in
  let btfnt_order = Ba_layout.Chain_order.Btfnt_precedence in
  let orig_image = sp "layout.image" (fun () -> Image.original ~profile program) in
  let orig_out = run_image ~archs:Harness.full_archs orig_image in
  let orig_insns = orig_out.Runner.result.Ba_exec.Engine.insns in
  let greedy_image = aligned "core.align.greedy" Align.Greedy in
  let greedy_out = run_image ~archs:Harness.full_archs greedy_image in
  let greedy_btfnt_out =
    run_image ~archs:[ `Arch Bep.Static_btfnt ]
      (aligned "core.align.greedy" ~strategy:btfnt_order Align.Greedy)
  in
  let exttsp_out =
    run_image ~archs:Harness.full_archs (aligned "core.align.exttsp" Align.ExtTsp)
  in
  let try15 arch = aligned "core.align.try15" ~arch (Align.Tryn 15) in
  let t15_ft_img = try15 Ba_core.Cost_model.Fallthrough in
  let t15_btfnt_img =
    aligned "core.align.try15" ~strategy:btfnt_order ~arch:Ba_core.Cost_model.Btfnt
      ~refine_rounds:2 (Align.Tryn 15)
  in
  let t15_likely_img = try15 Ba_core.Cost_model.Likely in
  let t15_pht_img = try15 Ba_core.Cost_model.Pht in
  let t15_btb_img = try15 Ba_core.Cost_model.Btb in
  let t15_ft = run_image ~archs:[ `Arch Bep.Static_fallthrough ] t15_ft_img in
  let t15_btfnt = run_image ~archs:[ `Arch Bep.Static_btfnt ] t15_btfnt_img in
  let t15_likely = run_image ~archs:[ `Likely ] t15_likely_img in
  let t15_pht = run_image ~archs:[ `Arch pht_direct; `Arch gshare ] t15_pht_img in
  let t15_btb = run_image ~archs:[ `Arch btb64; `Arch btb256 ] t15_btb_img in
  let anneal arch =
    build ~profile program
      (sp "delta.anneal" (fun () -> Ba_delta.Anneal.align_program ~arch profile))
  in
  let an_ft =
    run_image ~archs:[ `Arch Bep.Static_fallthrough ] (anneal Ba_core.Cost_model.Fallthrough)
  in
  let an_btfnt = run_image ~archs:[ `Arch Bep.Static_btfnt ] (anneal Ba_core.Cost_model.Btfnt) in
  let an_likely = run_image ~archs:[ `Likely ] (anneal Ba_core.Cost_model.Likely) in
  let an_pht =
    run_image ~archs:[ `Arch pht_direct; `Arch gshare ] (anneal Ba_core.Cost_model.Pht)
  in
  let an_btb = run_image ~archs:[ `Arch btb64; `Arch btb256 ] (anneal Ba_core.Cost_model.Btb) in
  let per_model ft btfnt likely pht btb =
    {
      Harness.fallthrough = cpi ft ~orig_insns 0;
      btfnt = cpi btfnt ~orig_insns 0;
      likely = cpi likely ~orig_insns 0;
      pht_direct = cpi pht ~orig_insns 0;
      gshare = cpi pht ~orig_insns 1;
      btb64 = cpi btb ~orig_insns 0;
      btb256 = cpi btb ~orig_insns 1;
    }
  in
  let alpha =
    if List.mem workload.name Spec.spec_c_programs then begin
      let fp_fraction =
        match workload.cls with Spec.Fp -> 0.5 | Spec.Int | Spec.Other -> 0.08
      in
      let run_alpha image =
        let result, alpha =
          sp "sim.alpha" (fun () ->
              Runner.simulate_alpha ~max_steps ~fp_fraction ~trace image)
        in
        Ba_sim.Alpha.cycles alpha ~insns:result.Ba_exec.Engine.insns
      in
      let orig_cycles = run_alpha orig_image in
      let greedy_cycles = run_alpha greedy_image in
      let try15_cycles = run_alpha t15_btb_img in
      Some (1.0, greedy_cycles /. orig_cycles, try15_cycles /. orig_cycles)
    end
    else None
  in
  let pct_ft out = Ba_exec.Trace_stats.pct_cond_fallthrough out.Runner.stats in
  {
    Harness.workload;
    orig_insns;
    stats = Ba_exec.Trace_stats.summarize orig_out.Runner.stats ~program ~insns:orig_insns;
    orig = cpis orig_out ~orig_insns;
    greedy = { (cpis greedy_out ~orig_insns) with btfnt = cpi greedy_btfnt_out ~orig_insns 0 };
    exttsp = cpis exttsp_out ~orig_insns;
    try15 = per_model t15_ft t15_btfnt t15_likely t15_pht t15_btb;
    anneal = per_model an_ft an_btfnt an_likely an_pht an_btb;
    pct_ft_orig = pct_ft orig_out;
    pct_ft_greedy = pct_ft greedy_out;
    pct_ft_try15_ft = pct_ft t15_ft;
    pct_ft_try15_btfnt = pct_ft t15_btfnt;
    pct_ft_try15_likely = pct_ft t15_likely;
    alpha;
  }

(* ------------------------------------------------------------------ *)
(* What the reproduce workload checks and reports                       *)

(* Digest of every field of one evaluation; floats in hex, so exact. *)
let eval_digest (e : Harness.eval) =
  let b = Buffer.create 1024 in
  let i x = Printf.bprintf b "%d;" x and f x = Printf.bprintf b "%h;" x in
  Buffer.add_string b e.workload.name;
  i e.orig_insns;
  let s = e.stats in
  i s.insns; f s.pct_breaks; i s.q50; i s.q90; i s.q99; i s.q100;
  i s.static_cond_sites; f s.pct_taken; f s.pct_cbr; f s.pct_ij; f s.pct_br;
  f s.pct_call; f s.pct_ret;
  List.iter
    (fun (c : Harness.arch_cpis) ->
      f c.fallthrough; f c.btfnt; f c.likely; f c.pht_direct; f c.gshare; f c.btb64;
      f c.btb256)
    [ e.orig; e.greedy; e.exttsp; e.try15; e.anneal ];
  f e.pct_ft_orig; f e.pct_ft_greedy; f e.pct_ft_try15_ft; f e.pct_ft_try15_btfnt;
  f e.pct_ft_try15_likely;
  (match e.alpha with
  | None -> Buffer.add_string b "-"
  | Some (o, g, t) -> f o; f g; f t);
  Expected.digest (Buffer.contents b)

(* Tables 2-4 and Figure 4 as `experiments` prints them, programs in the
   paper's order. *)
let tables evals =
  let evals =
    List.filter_map
      (fun (w : Spec.t) ->
        List.find_opt (fun (e : Harness.eval) -> e.workload.name = w.name) evals)
      Spec.all
  in
  String.concat "\n"
    [
      Ba_report.Tables.table2 evals;
      Ba_report.Tables.table3 evals;
      Ba_report.Tables.table4 evals;
      Ba_report.Tables.fig4 evals;
    ]

(* Geometric mean of one algorithm's Tables 3/4 relative CPI over every
   program and all seven architectures. *)
let rel_cpi column evals =
  let logs =
    List.concat_map
      (fun e ->
        let (c : Harness.arch_cpis) = column e in
        List.map log
          [ c.fallthrough; c.btfnt; c.likely; c.pht_direct; c.gshare; c.btb64; c.btb256 ])
      evals
  in
  exp (List.fold_left ( +. ) 0.0 logs /. float_of_int (List.length logs))

let eval_key ~max_steps name = Printf.sprintf "reproduce/%d/eval/%s" max_steps name
let tables_key ~max_steps = Printf.sprintf "reproduce/%d/tables" max_steps

let rel_cpis evals =
  [
    ("rel_cpi_try15", rel_cpi (fun (e : Harness.eval) -> e.try15) evals);
    ("rel_cpi_greedy", rel_cpi (fun (e : Harness.eval) -> e.greedy) evals);
    ("rel_cpi_exttsp", rel_cpi (fun (e : Harness.eval) -> e.exttsp) evals);
    ("rel_cpi_anneal", rel_cpi (fun (e : Harness.eval) -> e.anneal) evals);
  ]

(* Every evaluation, and the tables rendered from all of them, against
   their expected digests; the reasons for each mismatch. *)
let check_evals expected ~max_steps evals =
  let mismatch key got =
    match Expected.find expected key with
    | Some d when d = got -> []
    | Some _ -> [ key ^ ": differs from the expected output" ]
    | None -> [ key ^ ": no expected output" ]
  in
  List.concat_map
    (fun (e : Harness.eval) -> mismatch (eval_key ~max_steps e.workload.name) (eval_digest e))
    evals
  @ mismatch (tables_key ~max_steps) (Expected.digest (tables evals))
