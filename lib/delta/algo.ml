type t = Core of Ba_core.Align.algo | Anneal

let of_name s =
  match String.lowercase_ascii s with
  | "anneal" -> Ok Anneal
  | _ -> Result.map (fun a -> Core a) (Ba_core.Align.algo_of_name s)

let name = function Core a -> Ba_core.Align.algo_name a | Anneal -> "anneal"

let decisions ?pool ?(seed = 0) ?(sweeps = Anneal.default_sweeps) algo ~arch
    profile =
  let program = Ba_cfg.Profile.program profile in
  let n = Ba_ir.Program.n_procs program in
  match algo with
  | Core Ba_core.Align.Original ->
    Array.init n (fun p ->
        Ba_layout.Decision.identity (Ba_ir.Program.proc program p))
  | Core a -> Ba_core.Align.align_program a ~arch profile
  | Anneal -> (
    let align pid = Anneal.align_proc ~seed ~sweeps ~arch profile pid in
    match pool with
    | None -> Array.init n align
    | Some pool -> Ba_par.Pool.map_array pool align (Array.init n Fun.id))

let image algo ~arch profile =
  let program = Ba_cfg.Profile.program profile in
  match algo with
  | Core Ba_core.Align.Original -> Ba_layout.Image.original ~profile program
  | _ -> Ba_layout.Image.build ~profile program (decisions algo ~arch profile)

type proc_row = {
  pid : Ba_ir.Term.proc_id;
  proc_name : string;
  order : Ba_ir.Term.block_id array;
  forced : (Ba_ir.Term.block_id * Ba_layout.Decision.jump_leg) list;
  cost : float;
}

type listing = {
  procs : proc_row list;
  total_cost : float;
  penalty_model : string;
  penalty_cycles : int;
}

let listing ~arch profile trace decisions =
  let program = Ba_cfg.Profile.program profile in
  let total = ref 0.0 in
  let procs =
    List.init (Ba_ir.Program.n_procs program) (fun pid ->
        let proc = Ba_ir.Program.proc program pid in
        let d = decisions.(pid) in
        let cost =
          Model.total
            (Model.create ~arch
               ~visits:(fun b -> Ba_cfg.Profile.visits profile pid b)
               ~cond_counts:(fun b -> Ba_cfg.Profile.cond_counts profile pid b)
               proc d)
        in
        total := !total +. cost;
        let forced =
          List.filter_map
            (fun b -> Option.map (fun leg -> (b, leg)) d.Ba_layout.Decision.neither.(b))
            (List.init (Array.length d.Ba_layout.Decision.neither) Fun.id)
        in
        {
          pid;
          proc_name = proc.Ba_ir.Proc.name;
          order = d.Ba_layout.Decision.order;
          forced;
          cost;
        })
  in
  let spec = Eval.spec_of_model arch in
  let ev = Eval.create ~specs:[| spec |] profile trace decisions in
  {
    procs;
    total_cost = !total;
    penalty_model = Eval.spec_label spec;
    penalty_cycles = Eval.cost_arch ev 0 decisions;
  }
