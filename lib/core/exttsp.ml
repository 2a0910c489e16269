(* Extended-TSP chain merging.  See the interface for the objective; the
   evaluator's incrementality argument is spelled out inline below. *)

(* The published constants: credit per fall-through traversal, peak
   credit for a zero-distance jump, and the forward and backward windows
   (instruction slots) at or beyond which a jump scores 0. *)
let fall_weight = 1.0
let jump_weight = 0.1
let fwd_limit = 1024
let bwd_limit = 640

type edge = {
  src : Ba_ir.Term.block_id;
  dst : Ba_ir.Term.block_id;
  weight : float;
}

let m_merges = Ba_obs.Counter.make ~unit_:"merges" "core.exttsp.merges"
let m_guard = Ba_obs.Counter.make ~unit_:"procs" "core.exttsp.guard"

(* One slot per terminator, whatever the lowering later emits: the
   objective must be a function of the permutation alone so that a chain's
   internal contributions are invariant under concatenation. *)
let sizes_of (proc : Ba_ir.Proc.t) =
  Array.map (fun (b : Ba_ir.Block.t) -> b.Ba_ir.Block.insns + 1) proc.Ba_ir.Proc.blocks

let edges_of profile pid =
  let program = Ba_cfg.Profile.program profile in
  let proc = Ba_ir.Program.proc program pid in
  let n = Ba_ir.Proc.n_blocks proc in
  let acc = ref [] in
  let push src dst weight = acc := { src; dst; weight } :: !acc in
  for s = 0 to n - 1 do
    let visits () = float_of_int (Ba_cfg.Profile.visits profile pid s) in
    match (Ba_ir.Proc.block proc s).Ba_ir.Block.term with
    | Ba_ir.Term.Jump d -> push s d (visits ())
    | Ba_ir.Term.Cond { on_true; on_false; _ } ->
      let w_true, w_false = Ba_cfg.Profile.cond_counts profile pid s in
      push s on_true (float_of_int w_true);
      push s on_false (float_of_int w_false)
    | Ba_ir.Term.Switch { targets } ->
      (* Per-target traversal counts, duplicate targets folded into their
         first occurrence so no edge is priced twice. *)
      let counts = Ba_cfg.Profile.switch_counts profile pid s in
      let order = ref [] and folded = Hashtbl.create 4 in
      Array.iteri
        (fun k (d, _) ->
          let c = float_of_int counts.(k) in
          match Hashtbl.find_opt folded d with
          | Some prior -> Hashtbl.replace folded d (prior +. c)
          | None ->
            Hashtbl.add folded d c;
            order := d :: !order)
        targets;
      List.iter (fun d -> push s d (Hashtbl.find folded d)) (List.rev !order)
    | Ba_ir.Term.Call { next; _ } | Ba_ir.Term.Vcall { next; _ } ->
      push s next (visits ())
    | Ba_ir.Term.Ret | Ba_ir.Term.Halt -> ()
  done;
  Array.of_list (List.rev !acc)

(* Contribution of one edge traversal set given the branch-site end of the
   source block and the start of the destination block, in instruction
   slots.  Zero-distance forward = fall-through. *)
let contribution ~src_end ~dst_start weight =
  if weight <= 0.0 then 0.0
  else if dst_start = src_end then fall_weight *. weight
  else if dst_start > src_end then begin
    let d = dst_start - src_end in
    if d < fwd_limit then
      jump_weight *. weight
      *. (1.0 -. (float_of_int d /. float_of_int fwd_limit))
    else 0.0
  end
  else begin
    let d = src_end - dst_start in
    if d < bwd_limit then
      jump_weight *. weight
      *. (1.0 -. (float_of_int d /. float_of_int bwd_limit))
    else 0.0
  end

let score_order ~sizes ~edges order =
  let n = Array.length order in
  let start = Array.make (Array.length sizes) 0 in
  let cursor = ref 0 in
  for i = 0 to n - 1 do
    start.(order.(i)) <- !cursor;
    cursor := !cursor + sizes.(order.(i))
  done;
  Array.fold_left
    (fun acc { src; dst; weight } ->
      acc
      +. contribution ~src_end:(start.(src) + sizes.(src))
           ~dst_start:start.(dst) weight)
    0.0 edges

let score_decision profile pid (decision : Ba_layout.Decision.t) =
  let proc = Ba_ir.Program.proc (Ba_cfg.Profile.program profile) pid in
  score_order ~sizes:(sizes_of proc) ~edges:(edges_of profile pid)
    decision.Ba_layout.Decision.order

module Eval = struct
  (* Chains are identified by their root block id (the id of their first
     member at creation); a merge keeps the absorbing chain's id.  Offsets
     are block starts within the owning chain — invariant under every
     merge that does not involve the chain, which is what makes the cached
     per-edge contributions reusable: an edge's contribution depends only
     on the two endpoints' offsets within a *common* chain. *)
  type t = {
    sizes : int array;
    edges : edge array;
    contrib : float array;  (* cached contribution per edge, in edge order *)
    chain_of : int array;  (* block -> owning chain id *)
    offset : int array;  (* block -> start offset within its chain *)
    blocks_of : (int, int list) Hashtbl.t;  (* chain id -> members in order *)
    chain_size : int array;  (* chain id -> total slots *)
    chain_weight : float array;  (* chain id -> total block visit weight *)
    incident : (int, int list) Hashtbl.t;  (* chain id -> incident edge idxs *)
    mutable live : int list;  (* live chain ids, ascending *)
    entry_chain : unit -> int;
  }

  let create profile pid =
    let proc = Ba_ir.Program.proc (Ba_cfg.Profile.program profile) pid in
    let n = Ba_ir.Proc.n_blocks proc in
    let sizes = sizes_of proc in
    let edges = edges_of profile pid in
    let chain_of = Array.init n (fun b -> b) in
    let offset = Array.make n 0 in
    let blocks_of = Hashtbl.create n in
    let incident = Hashtbl.create n in
    for b = 0 to n - 1 do
      Hashtbl.replace blocks_of b [ b ];
      Hashtbl.replace incident b []
    done;
    Array.iteri
      (fun e { src; dst; _ } ->
        Hashtbl.replace incident src (e :: Hashtbl.find incident src);
        if dst <> src then
          Hashtbl.replace incident dst (e :: Hashtbl.find incident dst))
      edges;
    let contrib =
      Array.map
        (fun { src; dst; weight } ->
          if src = dst then
            contribution ~src_end:sizes.(src) ~dst_start:0 weight
          else 0.0)
        edges
    in
    let t =
      {
        sizes;
        edges;
        contrib;
        chain_of;
        offset;
        blocks_of;
        chain_size = Array.copy sizes;
        chain_weight =
          Array.init n (fun b ->
              float_of_int (Ba_cfg.Profile.visits profile pid b));
        incident;
        live = List.init n (fun i -> i);
        entry_chain = (fun () -> chain_of.(Ba_ir.Proc.entry));
      }
    in
    t

  let n_chains t = List.length t.live

  let chains t =
    List.map (fun c -> Array.of_list (Hashtbl.find t.blocks_of c)) t.live

  let total t = Array.fold_left ( +. ) 0.0 t.contrib

  let edge_contribution t ~shift_b ~in_b e =
    (* Contribution of edge [e] once chain b sits [shift_b] slots after
       the start of chain a; [in_b] says which blocks currently belong to
       chain b. *)
    let { src; dst; weight } = t.edges.(e) in
    let place blk = t.offset.(blk) + if in_b blk then shift_b else 0 in
    contribution
      ~src_end:(place src + t.sizes.(src))
      ~dst_start:(place dst) weight

  let scratch_total t =
    let acc = ref 0.0 in
    Array.iteri
      (fun e { src; dst; _ } ->
        let c =
          if t.chain_of.(src) = t.chain_of.(dst) then
            edge_contribution t ~shift_b:0 ~in_b:(fun _ -> false) e
          else 0.0
        in
        acc := !acc +. c)
      t.edges;
    !acc

  let cross_edges t a b =
    (* Edge indices with one endpoint in each chain, ascending and without
       duplicates (an edge is listed under both endpoint chains). *)
    let sel e =
      let { src; dst; _ } = t.edges.(e) in
      let cs = t.chain_of.(src) and cd = t.chain_of.(dst) in
      (cs = a && cd = b) || (cs = b && cd = a)
    in
    List.sort_uniq compare
      (List.filter sel (Hashtbl.find t.incident a))

  let merge_gain t a b =
    let shift_b = t.chain_size.(a) in
    let in_b blk = t.chain_of.(blk) = b in
    List.fold_left
      (fun acc e -> acc +. edge_contribution t ~shift_b ~in_b e)
      0.0 (cross_edges t a b)

  let merge t a b =
    if a = b || t.chain_of.(a) <> a || t.chain_of.(b) <> b then
      invalid_arg "Exttsp.Eval.merge: not distinct live chains";
    let cross = cross_edges t a b in
    let shift_b = t.chain_size.(a) in
    let in_b blk = t.chain_of.(blk) = b in
    (* Re-price exactly the window: the edges crossing the junction.  All
       other cached contributions are offsets-within-one-chain and those
       offsets do not change. *)
    List.iter
      (fun e -> t.contrib.(e) <- edge_contribution t ~shift_b ~in_b e)
      cross;
    let b_blocks = Hashtbl.find t.blocks_of b in
    List.iter
      (fun blk ->
        t.chain_of.(blk) <- a;
        t.offset.(blk) <- t.offset.(blk) + shift_b)
      b_blocks;
    Hashtbl.replace t.blocks_of a (Hashtbl.find t.blocks_of a @ b_blocks);
    Hashtbl.remove t.blocks_of b;
    t.chain_size.(a) <- t.chain_size.(a) + t.chain_size.(b);
    t.chain_weight.(a) <- t.chain_weight.(a) +. t.chain_weight.(b);
    Hashtbl.replace t.incident a
      (Hashtbl.find t.incident a @ Hashtbl.find t.incident b);
    Hashtbl.remove t.incident b;
    t.live <- List.filter (fun c -> c <> b) t.live;
    Ba_obs.Counter.incr m_merges

  let best_merge t =
    let entry = t.entry_chain () in
    (* Candidate pairs: both orientations of every edge-connected pair of
       live chains, the entry chain never appended. *)
    let pairs = Hashtbl.create 16 in
    Array.iter
      (fun { src; dst; _ } ->
        let a = t.chain_of.(src) and b = t.chain_of.(dst) in
        if a <> b then begin
          if b <> entry then Hashtbl.replace pairs (a, b) ();
          if a <> entry then Hashtbl.replace pairs (b, a) ()
        end)
      t.edges;
    let candidates =
      List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) pairs [])
    in
    List.fold_left
      (fun best (a, b) ->
        let gain = merge_gain t a b in
        if gain <= 0.0 then best
        else
          match best with
          | Some (_, _, g) when g >= gain -> best
          | _ -> Some (a, b, gain))
      None candidates

  let order t =
    let entry = t.entry_chain () in
    let rest = List.filter (fun c -> c <> entry) t.live in
    let density c = t.chain_weight.(c) /. float_of_int t.chain_size.(c) in
    let rest =
      List.stable_sort
        (fun c1 c2 -> compare (density c2, c1) (density c1, c2))
        rest
    in
    Array.of_list
      (List.concat_map (fun c -> Hashtbl.find t.blocks_of c) (entry :: rest))
end

let align_proc ?strategy profile pid =
  let ev = Eval.create profile pid in
  let rec loop () =
    match Eval.best_merge ev with
    | Some (a, b, _) ->
      Eval.merge ev a b;
      loop ()
    | None -> ()
  in
  loop ();
  let mine = Ba_layout.Decision.of_order (Eval.order ev) in
  let ctx = Ctx.of_profile profile pid in
  let greedy = Ctx.to_decision ?strategy ctx (Greedy.build_chains ctx) in
  if
    score_decision profile pid greedy
    > score_decision profile pid mine
  then begin
    Ba_obs.Counter.incr m_guard;
    greedy
  end
  else mine
