type algo = Original | Greedy | Cost | Tryn of int | ExtTsp

let algo_name = function
  | Original -> "Orig"
  | Greedy -> "Greedy"
  | Cost -> "Cost"
  | Tryn n -> Printf.sprintf "Try%d" n
  | ExtTsp -> "ExtTsp"

(* One spelling table shared by the CLI and the serve protocol, so a request
   kind accepts exactly what the command line accepts. *)
let algo_of_name s =
  match String.lowercase_ascii s with
  | "orig" | "original" -> Ok Original
  | "greedy" | "pettis-hansen" -> Ok Greedy
  | "cost" -> Ok Cost
  | "exttsp" -> Ok ExtTsp
  | l when String.length l > 3 && String.sub l 0 3 = "try" -> (
    match int_of_string_opt (String.sub l 3 (String.length l - 3)) with
    | Some n when n > 0 -> Ok (Tryn n)
    | Some _ | None -> Error "tryN: N must be a positive integer")
  | _ -> Error (Printf.sprintf "unknown algorithm %S" s)

let run_algo algo ~arch ?table ctx =
  match algo with
  | Original -> invalid_arg "Align.run_algo: Original has no chains"
  | ExtTsp -> invalid_arg "Align.run_algo: ExtTsp merges its own chains"
  | Greedy -> Greedy.build_chains ctx
  | Cost -> Cost_align.build_chains ~arch ?table ctx
  | Tryn n -> Tryn.build_chains ~arch ?table ~n ctx

(* Exact model cost of one decision: lower it and price the result — the
   same objective Layout_cost scores finished layouts with. *)
let exact_cost ~arch ?table profile pid decision =
  let proc = Ba_ir.Program.proc (Ba_cfg.Profile.program profile) pid in
  let cond_counts b = Ba_cfg.Profile.cond_counts profile pid b in
  let linear = Ba_layout.Lower.lower ~cond_counts proc decision in
  Layout_cost.branch_cost ~arch ?table
    ~visits:(fun b -> Ba_cfg.Profile.visits profile pid b)
    ~cond_counts linear

let m_model_guard =
  Ba_obs.Counter.make ~unit_:"procs" "core.align.model_guard"

let align_proc algo ?strategy ?(arch = Cost_model.Btfnt) ?table
    ?(refine_rounds = 1) profile pid =
  Ba_obs.Span.with_ "align" @@ fun () ->
  let program = Ba_cfg.Profile.program profile in
  let proc = Ba_ir.Program.proc program pid in
  match algo with
  | Original -> Ba_layout.Decision.identity proc
  | ExtTsp ->
    (* Chain merging over the extended-TSP objective; architecture
       oblivious, so [arch]/[refine_rounds] do not apply.  The
       never-worse-than-Greedy guard (under the ExtTSP objective) lives
       inside [Exttsp.align_proc]. *)
    Exttsp.align_proc ?strategy profile pid
  | Greedy | Cost | Tryn _ ->
    if refine_rounds < 1 then invalid_arg "Align.align_proc: refine_rounds must be >= 1";
    let base_ctx = Ctx.of_profile profile pid in
    let one_round ctx =
      Ctx.to_decision ?strategy ctx (run_algo algo ~arch ?table ctx)
    in
    (* Round one guesses taken-branch directions from DFS back edges; each
       further round re-aligns knowing the previous layout's actual block
       positions — closing the gap the paper notes for BT/FNT ("it is not
       known where the taken branch will be located ... until the chains
       are formed and laid out"). *)
    let rec refine round decision =
      if round >= refine_rounds then decision
      else begin
        let pos = Ba_layout.Decision.position decision in
        let ctx = Ctx.with_direction base_ctx (fun s d -> pos.(d) <= pos.(s)) in
        refine (round + 1) (one_round ctx)
      end
    in
    let decision = refine 1 (one_round base_ctx) in
    (match algo with
    | Original | ExtTsp | Greedy -> decision
    | Cost | Tryn _ ->
      (* Model guard: the cost-model heuristics estimate during chain
         construction and can (rarely — ~0.1% of random CFGs) end up
         pricier than the architecture-oblivious Greedy under their own
         model.  Price both layouts exactly and keep the cheaper, so
         "never loses to Greedy under the model it optimizes" holds by
         construction; ties keep the heuristic's layout. *)
      let greedy = Ctx.to_decision ?strategy base_ctx (Greedy.build_chains base_ctx) in
      if exact_cost ~arch ?table profile pid greedy
         < exact_cost ~arch ?table profile pid decision
      then begin
        Ba_obs.Counter.incr m_model_guard;
        greedy
      end
      else decision)

let align_program algo ?strategy ?arch ?table ?refine_rounds profile =
  let program = Ba_cfg.Profile.program profile in
  Array.init (Ba_ir.Program.n_procs program) (fun pid ->
      align_proc algo ?strategy ?arch ?table ?refine_rounds profile pid)

let image algo ?strategy ?arch ?table ?refine_rounds profile =
  let program = Ba_cfg.Profile.program profile in
  let decisions =
    align_program algo ?strategy ?arch ?table ?refine_rounds profile
  in
  Ba_layout.Image.build ~profile program decisions
