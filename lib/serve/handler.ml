(* Request execution.  Each compute kind runs the corresponding CLI
   command's pipeline through the same library calls (Ba_delta.Algo to
   parse, align and list, Ba_report.Harness to score) and differs only in
   rendering a JSON body instead of an ASCII table, so a served response
   carries the same numbers the command line prints.  Handlers are pure
   functions of the request (profiles and traces come from the
   deterministic Profiled cache), which is what makes batched responses
   byte-identical at any [-j]. *)

open Ba_util

let parse_algo = function
  | "" -> Ok (Ba_delta.Algo.Core (Ba_core.Align.Tryn 15))
  | s -> Ba_delta.Algo.of_name s

let parse_arch = function
  | "" -> Ok Ba_core.Cost_model.Btfnt
  | s -> Ba_core.Cost_model.arch_of_name s

let lookup_workload = function
  | "" -> Error "request needs a \"workload\" field"
  | name -> (
    match Ba_workloads.Spec.by_name name with
    | Some w -> Ok w
    | None -> Error (Printf.sprintf "unknown workload %S" name))

(* The (workload, algo, arch, max_steps) quadruple every compute kind
   starts from. *)
let resolve (r : Protocol.request) =
  match lookup_workload r.Protocol.workload with
  | Error e -> Error e
  | Ok w -> (
    match parse_algo r.Protocol.algo with
    | Error e -> Error e
    | Ok algo -> (
      match parse_arch r.Protocol.arch with
      | Error e -> Error e
      | Ok arch ->
        let max_steps =
          match r.Protocol.max_steps with
          | Some s -> s
          | None -> Ba_workloads.Spec.default_max_steps
        in
        Ok (w, algo, arch, max_steps)))

(* The head every compute body starts with. *)
let header (w : Ba_workloads.Spec.t) algo arch =
  [
    ("workload", Json.String w.Ba_workloads.Spec.name);
    ("algo", Json.String (Ba_delta.Algo.name algo));
    ("arch", Json.String (Ba_core.Cost_model.arch_name arch));
  ]

let align_body ~w ~algo ~arch ~max_steps =
  let _program, profile, trace =
    Ba_workloads.Profiled.get_traced ~max_steps w
  in
  (* Seed 0 and default sweeps for anneal, the CLI's defaults.  No pool:
     handlers already run inside pool tasks. *)
  let decisions = Ba_delta.Algo.decisions algo ~arch profile in
  let l = Ba_delta.Algo.listing ~arch profile trace decisions in
  let proc (p : Ba_delta.Algo.proc_row) =
    Json.Obj
      [
        ("proc", Json.Int p.Ba_delta.Algo.pid);
        ("name", Json.String p.Ba_delta.Algo.proc_name);
        ( "order",
          Json.List
            (List.map (fun b -> Json.Int b) (Array.to_list p.Ba_delta.Algo.order))
        );
        ( "forced",
          Json.List
            (List.map
               (fun (b, leg) ->
                 Json.Obj
                   [
                     ("block", Json.Int b);
                     ("leg", Json.String (Ba_layout.Decision.leg_name leg));
                   ])
               p.Ba_delta.Algo.forced) );
        ("cost", Json.Float p.Ba_delta.Algo.cost);
      ]
  in
  Json.Obj
    (header w algo arch
    @ [
        ("procs", Json.List (List.map proc l.Ba_delta.Algo.procs));
        ("total_cost", Json.Float l.Ba_delta.Algo.total_cost);
        ("penalty_model", Json.String l.Ba_delta.Algo.penalty_model);
        ("penalty_cycles", Json.Int l.Ba_delta.Algo.penalty_cycles);
      ])

let simulate_body ~w ~algo ~arch ~max_steps =
  let _program, profile, trace =
    Ba_workloads.Profiled.get_traced ~max_steps w
  in
  let out =
    Ba_report.Harness.run_image ~max_steps ~profile ~trace
      ~archs:Ba_report.Harness.simulate_archs
      (Ba_delta.Algo.image algo ~arch profile)
  in
  let sims =
    List.map
      (fun (a, sim) ->
        let counts = Ba_sim.Bep.counts sim in
        Json.Obj
          [
            ("label", Json.String (Ba_sim.Bep.arch_label a));
            ("accuracy", Json.Float (100.0 *. Ba_sim.Bep.cond_accuracy sim));
            ("misfetches", Json.Int counts.Ba_sim.Bep.misfetches);
            ("mispredicts", Json.Int counts.Ba_sim.Bep.mispredicts);
            ("bep_cycles", Json.Int (Ba_sim.Bep.bep sim));
          ])
      (Array.to_list out.Ba_sim.Runner.sims)
  in
  Json.Obj
    (header w algo arch
    @ [
        ( "branches",
          Json.Int out.Ba_sim.Runner.result.Ba_exec.Engine.branches );
        ("insns", Json.Int out.Ba_sim.Runner.result.Ba_exec.Engine.insns);
        ("architectures", Json.List sims);
      ])

let verify_body ~w ~algo ~arch ~max_steps =
  let _program, profile, trace =
    Ba_workloads.Profiled.get_traced ~max_steps w
  in
  let result = Ba_verify.Run.verify ~trace ~arch ~profile algo in
  let diags = Ba_verify.Run.diagnostics result in
  let e, warn, i = Ba_analysis.Diagnostic.count diags in
  Json.Obj
    (header w algo arch
    @ [
        ("verified", Json.Bool result.Ba_verify.Run.verified);
        ("errors", Json.Int e);
        ("warnings", Json.Int warn);
        ("infos", Json.Int i);
        ( "certificates",
          Json.List
            (List.map Ba_verify.Certificate.to_json
               result.Ba_verify.Run.certificates) );
        ( "diagnostics",
          Json.List (List.map Ba_analysis.Diagnostic.to_json diags) );
      ])

let analyze_body ~w ~algo ~arch ~max_steps =
  let _program, profile, _trace =
    Ba_workloads.Profiled.get_traced ~max_steps w
  in
  let reports =
    Ba_conflict.Analyze.analyze ~profile (Ba_delta.Algo.image algo ~arch profile)
  in
  Json.Obj
    (header w algo arch
    @ [
        ("objective", Json.Int (Ba_conflict.Analyze.objective reports));
        ("reports", Ba_conflict.Analyze.to_json reports);
      ])

let tables_body ~(w : Ba_workloads.Spec.t) ~max_steps =
  let eval = Ba_report.Harness.evaluate ~max_steps w in
  Json.Obj
    [
      ("workload", Json.String w.Ba_workloads.Spec.name);
      ("table2", Json.String (Ba_report.Tables.table2 [ eval ]));
      ("table3", Json.String (Ba_report.Tables.table3 [ eval ]));
      ("table4", Json.String (Ba_report.Tables.table4 [ eval ]));
    ]

let handle (r : Protocol.request) : Protocol.response =
  let ok body = { Protocol.rid = r.Protocol.id; status = Ok_; body } in
  let error msg =
    { Protocol.rid = r.Protocol.id; status = Error_ msg; body = Json.Null }
  in
  match r.Protocol.kind with
  | Protocol.Ping -> ok (Json.Obj [ ("pong", Json.Bool true) ])
  | Protocol.Metrics ->
    (* The server answers these itself (it owns the registry and the
       latency samples); reaching here means a bare handler was asked. *)
    error "metrics requests are answered by the server"
  | Protocol.Align | Protocol.Simulate | Protocol.Verify | Protocol.Analyze
  | Protocol.Tables -> (
    match resolve r with
    | Error e -> error e
    | Ok (w, algo, arch, max_steps) -> (
      match
        match r.Protocol.kind with
        | Protocol.Align -> align_body ~w ~algo ~arch ~max_steps
        | Protocol.Simulate -> simulate_body ~w ~algo ~arch ~max_steps
        | Protocol.Verify -> verify_body ~w ~algo ~arch ~max_steps
        | Protocol.Analyze -> analyze_body ~w ~algo ~arch ~max_steps
        | Protocol.Tables -> tables_body ~w ~max_steps
        | Protocol.Ping | Protocol.Metrics -> assert false
      with
      | body -> ok body
      | exception Invalid_argument msg -> error msg
      | exception Failure msg -> error msg))
