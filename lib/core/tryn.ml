open Ba_layout

type decision = Fall | Taken

(* Exact above-baseline cost of conditional site [s] at a search leaf.
   [leg_status] reports, for each leg, whether it is the chain fall-through
   (links made by this or earlier groups): legs not linked are taken.  The
   baseline (one instruction per traversal) is included — it is constant
   across assignments, so it cancels in comparisons. *)
let site_cost ~arch ~table (ctx : Ctx.t) chain s =
  match Ctx.cond_legs ctx s with
  | None -> 0.0
  | Some ((d1, w1), (d2, w2)) ->
    let fw = float_of_int in
    let fall_leg =
      match Chain.chain_succ chain s with
      | Some d when d = d1 -> Some (d1, w1, d2, w2)
      | Some d when d = d2 -> Some (d2, w2, d1, w1)
      | Some _ | None -> None
    in
    (match fall_leg with
    | Some (_, w_fall, d_taken, w_taken) ->
      Cost_model.cond_cost arch table ~w_taken:(fw w_taken) ~w_fall:(fw w_fall)
        ~taken_backward:(ctx.Ctx.is_back_edge s d_taken)
    | None ->
      (* No fall-through: lowering will insert a jump; the commit step picks
         the cheaper jump leg, so score that choice here. *)
      let _, cost =
        Options.best_neither ~arch ~table ctx s ~legs:((d1, w1), (d2, w2))
      in
      cost)

let flow_cost ~arch ~table (ctx : Ctx.t) chain s =
  match Chain.chain_succ chain s with
  | Some _ -> 0.0
  | None -> float_of_int (ctx.Ctx.visits s) *. Cost_model.uncond_cost arch table

let is_cond (ctx : Ctx.t) b =
  match (Ba_ir.Proc.block ctx.Ctx.proc b).Ba_ir.Block.term with
  | Ba_ir.Term.Cond _ -> true
  | _ -> false

(* Optimistic (lower-bound) cost increment of one decision, for pruning. *)
let optimistic ~arch ~table (ctx : Ctx.t) ((e : Ba_cfg.Edge.t), w) = function
  | Fall -> 0.0
  | Taken ->
    let fw = float_of_int w in
    if is_cond ctx e.src then
      (* Best case for a taken leg: correctly predicted taken. *)
      fw *. table.Cost_model.misfetch
    else fw *. Cost_model.uncond_cost arch table

let distinct_sources group =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun ((e : Ba_cfg.Edge.t), _) ->
      if Hashtbl.mem seen e.src then None
      else begin
        Hashtbl.add seen e.src ();
        Some e.src
      end)
    group

(* Search one group: enumerate all feasible Fall/Taken assignments with
   branch-and-bound, returning the best assignment's links.

   Leaf evaluation is incremental: a source's cost depends only on its own
   chain successor ([site_cost] and [flow_cost] read nothing else that the
   search mutates), and the search only relinks edges of this group, so a
   cached per-source cost goes stale exactly when a link or unlink names
   that source — dirty it then, reprice only dirty sources at the next
   leaf.  The cached values are folded in source order, so every leaf
   total equals a fresh fold over the group's sources. *)
let search_group ~arch ~table ctx chain group =
  let edges = Array.of_list group in
  let n = Array.length edges in
  let src_arr = Array.of_list (distinct_sources group) in
  let n_src = Array.length src_arr in
  let slot = Hashtbl.create (max 16 (2 * n_src)) in
  Array.iteri (fun i s -> Hashtbl.replace slot s i) src_arr;
  let cache = Array.make (max 1 n_src) 0.0 in
  let cache_valid = Array.make (max 1 n_src) false in
  let dirty s =
    match Hashtbl.find_opt slot s with
    | Some i -> cache_valid.(i) <- false
    | None -> ()
  in
  let leaf () =
    let acc = ref 0.0 in
    for i = 0 to n_src - 1 do
      let s = src_arr.(i) in
      if not cache_valid.(i) then begin
        cache.(i) <-
          (if is_cond ctx s then site_cost ~arch ~table ctx chain s
           else flow_cost ~arch ~table ctx chain s);
        cache_valid.(i) <- true
      end;
      acc := !acc +. cache.(i)
    done;
    !acc
  in
  let best_cost = ref infinity in
  let best_links = ref [] in
  let current_links = ref [] in
  let rec go i partial =
    if partial >= !best_cost then ()
    else if i = n then begin
      let cost = leaf () in
      if cost < !best_cost then begin
        best_cost := cost;
        best_links := List.rev !current_links
      end
    end
    else begin
      let ((e : Ba_cfg.Edge.t), _w) = edges.(i) in
      (* Try the fall-through placement first (it is never worse in the
         optimistic bound, so it tends to tighten the bound early). *)
      if Chain.can_link chain ~src:e.src ~dst:e.dst then begin
        Chain.link chain ~src:e.src ~dst:e.dst;
        dirty e.src;
        current_links := (e.src, e.dst) :: !current_links;
        go (i + 1) (partial +. optimistic ~arch ~table ctx edges.(i) Fall);
        current_links := List.tl !current_links;
        Chain.unlink chain ~src:e.src;
        dirty e.src
      end;
      go (i + 1) (partial +. optimistic ~arch ~table ctx edges.(i) Taken)
    end
  in
  go 0 0.0;
  !best_links

let rec chunk n = function
  | [] -> []
  | l ->
    let rec take k acc = function
      | rest when k = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: rest -> take (k - 1) (x :: acc) rest
    in
    let group, rest = take n [] l in
    group :: chunk n rest

let m_group_size =
  Ba_obs.Histogram.make ~unit_:"edges"
    ~buckets:[| 1; 2; 4; 8; 16; 32 |]
    "core.align.tryn.group_size"

let m_link = Ba_obs.Counter.make ~unit_:"edges" "core.align.tryn.link"
let m_neither = Ba_obs.Counter.make ~unit_:"sites" "core.align.tryn.neither"
let m_cold_link = Ba_obs.Counter.make ~unit_:"edges" "core.align.tryn.cold_link"

let build_chains ~arch ?(table = Cost_model.default_table) ?(n = 15)
    ?(min_weight = 2) (ctx : Ctx.t) =
  if n < 1 then invalid_arg "Tryn.build_chains: n must be positive";
  let chain = Ctx.fresh_chain ctx in
  let hot, cold = List.partition (fun (_, w) -> w >= min_weight) ctx.Ctx.edges in
  let processed = Hashtbl.create 64 in
  List.iter
    (fun group ->
      Ba_obs.Histogram.observe m_group_size (List.length group);
      List.iter (fun ((e : Ba_cfg.Edge.t), _) -> Hashtbl.replace processed e ()) group;
      let links = search_group ~arch ~table ctx chain group in
      List.iter
        (fun (src, dst) ->
          Ba_obs.Counter.incr m_link;
          Chain.link chain ~src ~dst)
        links;
      (* A conditional whose legs were all considered and left taken was
         scored as the jump-insertion lowering; pin that decision so a later
         chain ordering cannot accidentally make a leg adjacent. *)
      List.iter
        (fun s ->
          match Ctx.cond_legs ctx s with
          | Some (((d1, _), (d2, _)) as legs)
            when Chain.chain_succ chain s = None
                 && (not (Chain.fallthrough_forbidden chain s))
                 && Hashtbl.mem processed { Ba_cfg.Edge.src = s; dst = d1; kind = On_true }
                 && Hashtbl.mem processed { Ba_cfg.Edge.src = s; dst = d2; kind = On_false }
            ->
            let jump_leg, _ = Options.best_neither ~arch ~table ctx s ~legs in
            Ba_obs.Counter.incr m_neither;
            Chain.forbid_fallthrough ~jump_leg chain s
          | Some _ | None -> ())
        (distinct_sources group))
    (chunk n hot);
  (* Cold edges carry no useful cost signal; link them greedily to avoid
     pointless jumps in never-executed code. *)
  List.iter
    (fun ((e : Ba_cfg.Edge.t), _) ->
      if (not (Hashtbl.mem processed e)) && Chain.can_link chain ~src:e.src ~dst:e.dst
      then begin
        Ba_obs.Counter.incr m_cold_link;
        Chain.link chain ~src:e.src ~dst:e.dst
      end)
    cold;
  chain
