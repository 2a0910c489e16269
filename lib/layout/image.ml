type t = {
  program : Ba_ir.Program.t;
  linears : Linear.t array;
  bases : int array;
  total_size : int;
}

let build ?profile ?pads program decisions =
  Ba_obs.Span.with_ "lower" @@ fun () ->
  let n = Ba_ir.Program.n_procs program in
  if Array.length decisions <> n then
    invalid_arg "Image.build: one decision per procedure required";
  (match pads with
  | Some pads ->
    if Array.length pads <> n then
      invalid_arg "Image.build: one pad per procedure required";
    Array.iter (fun pad -> if pad < 0 then invalid_arg "Image.build: negative pad") pads
  | None -> ());
  let linears =
    Array.init n (fun p ->
        let proc = Ba_ir.Program.proc program p in
        let cond_counts =
          match profile with
          | Some prof -> Some (fun b -> Ba_cfg.Profile.cond_counts prof p b)
          | None -> None
        in
        Lower.lower ?cond_counts proc decisions.(p))
  in
  let bases = Array.make n 0 in
  let addr = ref 0 in
  Array.iteri
    (fun p linear ->
      (match pads with
      | Some pads -> addr := !addr + pads.(p)
      | None -> ());
      bases.(p) <- !addr;
      Array.iter
        (fun (lb : Linear.lblock) ->
          lb.Linear.addr <- !addr;
          addr := !addr + Linear.block_size lb)
        linear.Linear.blocks)
    linears;
  { program; linears; bases; total_size = !addr }

type interproc = {
  image : t;
  proc_order : int array;
  splits : int array;
  hot_size : int;
}

let m_interproc = Ba_obs.Counter.make ~unit_:"images" "layout.interproc.images"

let m_split_procs =
  Ba_obs.Counter.make ~unit_:"procs" "layout.interproc.split_procs"

let m_cold_insns =
  Ba_obs.Counter.make ~unit_:"insns" "layout.interproc.cold_insns"

(* Call-graph edge weights: how often procedure [p] transfers to callee
   [q], from the caller block's visit counts (virtual calls apportioned by
   their weight tables).  Deterministic: callers ascending, blocks
   ascending, vcall callees in table order. *)
let call_edges profile program =
  let n = Ba_ir.Program.n_procs program in
  let weights = Hashtbl.create 16 in
  let add p q w =
    if w > 0.0 && p <> q then
      let key = (p, q) in
      Hashtbl.replace weights key
        (w +. try Hashtbl.find weights key with Not_found -> 0.0)
  in
  for p = 0 to n - 1 do
    let proc = Ba_ir.Program.proc program p in
    for b = 0 to Ba_ir.Proc.n_blocks proc - 1 do
      let visits = float_of_int (Ba_cfg.Profile.visits profile p b) in
      match (Ba_ir.Proc.block proc b).Ba_ir.Block.term with
      | Ba_ir.Term.Call { callee; _ } -> add p callee visits
      | Ba_ir.Term.Vcall { callees; _ } ->
        let total = Array.fold_left (fun acc (_, w) -> acc +. w) 0.0 callees in
        if total > 0.0 then
          Array.iter (fun (q, w) -> add p q (visits *. w /. total)) callees
      | _ -> ()
    done
  done;
  let edges = Hashtbl.fold (fun (p, q) w acc -> (p, q, w) :: acc) weights [] in
  (* heaviest first; ties by (caller, callee) so the order is total *)
  List.sort
    (fun (p1, q1, w1) (p2, q2, w2) -> compare (w2, p1, q1) (w1, p2, q2))
    edges

(* Pettis-Hansen-style procedure chaining over the call graph: walk call
   edges heaviest-first, appending the callee's chain after the caller's
   whenever they are still distinct, so hot callees land right after their
   hot callers.  The entry procedure's chain is pinned first; remaining
   chains follow by total entry-visit hotness (ties by smallest pid). *)
let stitch_order profile program =
  let n = Ba_ir.Program.n_procs program in
  let chain_of = Array.init n (fun p -> p) in
  let members = Array.init n (fun p -> ref [ p ]) in
  List.iter
    (fun (p, q, _) ->
      let a = chain_of.(p) and b = chain_of.(q) in
      if a <> b && b <> chain_of.(0) then begin
        List.iter (fun r -> chain_of.(r) <- a) !(members.(b));
        members.(a) := !(members.(a)) @ !(members.(b));
        members.(b) := []
      end)
    (call_edges profile program);
  let hotness c =
    List.fold_left
      (fun acc p ->
        acc + Ba_cfg.Profile.visits profile p Ba_ir.Proc.entry)
      0 !(members.(c))
  in
  let live =
    List.filter
      (fun c -> chain_of.(c) = c && c <> chain_of.(0))
      (List.init n (fun i -> i))
  in
  let rest =
    List.stable_sort (fun c1 c2 -> compare (hotness c2, c1) (hotness c1, c2)) live
  in
  Array.of_list (List.concat_map (fun c -> !(members.(c))) (chain_of.(0) :: rest))

(* The first layout position of the procedure's cold suffix (its block
   count when nothing is cold): the longest tail of never-visited blocks
   that keeps the entry hot and is only entered through an explicit
   transfer — the block before the split must not fall through, or the gap
   would break the control flow the addresses describe. *)
let split_point profile p (linear : Linear.t) =
  let blocks = linear.Linear.blocks in
  let n = Array.length blocks in
  let cold i = Ba_cfg.Profile.visits profile p blocks.(i).Linear.src = 0 in
  let s = ref n in
  while !s > 1 && cold (!s - 1) do decr s done;
  while !s < n && Linear.falls_through blocks.(!s - 1) do incr s done;
  !s

let build_interproc ?pads ~profile program decisions =
  Ba_obs.Span.with_ "lower" @@ fun () ->
  let n = Ba_ir.Program.n_procs program in
  if Array.length decisions <> n then
    invalid_arg "Image.build_interproc: one decision per procedure required";
  (match pads with
  | Some pads ->
    if Array.length pads <> n then
      invalid_arg "Image.build_interproc: one pad per procedure required";
    Array.iter
      (fun pad ->
        if pad < 0 then invalid_arg "Image.build_interproc: negative pad")
      pads
  | None -> ());
  let linears =
    Array.init n (fun p ->
        let proc = Ba_ir.Program.proc program p in
        Lower.lower
          ~cond_counts:(fun b -> Ba_cfg.Profile.cond_counts profile p b)
          proc decisions.(p))
  in
  let proc_order = stitch_order profile program in
  let splits =
    Array.init n (fun p -> split_point profile p linears.(p))
  in
  (* Hot prefixes in stitched order (with the pads), then every cold
     suffix in the same order in one trailing cold section.  Addresses
     stay strictly increasing with layout position inside each procedure,
     so the positional taken-branch direction the cost model and the
     bisimulation use agrees with the address direction the predictors
     see. *)
  let bases = Array.make n 0 in
  let addr = ref 0 in
  Array.iter
    (fun p ->
      (match pads with Some pads -> addr := !addr + pads.(p) | None -> ());
      bases.(p) <- !addr;
      let blocks = linears.(p).Linear.blocks in
      for i = 0 to splits.(p) - 1 do
        blocks.(i).Linear.addr <- !addr;
        addr := !addr + Linear.block_size blocks.(i)
      done)
    proc_order;
  let hot_size = !addr in
  Array.iter
    (fun p ->
      let blocks = linears.(p).Linear.blocks in
      for i = splits.(p) to Array.length blocks - 1 do
        blocks.(i).Linear.addr <- !addr;
        addr := !addr + Linear.block_size blocks.(i)
      done)
    proc_order;
  Ba_obs.Counter.incr m_interproc;
  Array.iteri
    (fun p s ->
      let blocks = linears.(p).Linear.blocks in
      if s < Array.length blocks then begin
        Ba_obs.Counter.incr m_split_procs;
        let cold = ref 0 in
        for i = s to Array.length blocks - 1 do
          cold := !cold + Linear.block_size blocks.(i)
        done;
        Ba_obs.Counter.add m_cold_insns !cold
      end)
    splits;
  let image = { program; linears; bases; total_size = !addr } in
  { image; proc_order; splits; hot_size }

let original ?profile program =
  let decisions =
    Array.init (Ba_ir.Program.n_procs program) (fun p ->
        Decision.identity (Ba_ir.Program.proc program p))
  in
  build ?profile program decisions

let entry_addr t p = t.bases.(p)

let block_addr t p b =
  let linear = t.linears.(p) in
  let pos = (Decision.position linear.Linear.decision).(b) in
  linear.Linear.blocks.(pos).Linear.addr

let lblock t p pos = t.linears.(p).Linear.blocks.(pos)

let validate t =
  let n = Array.length t.linears in
  let rec check p =
    if p = n then Ok ()
    else
      match Linear.validate t.linears.(p) with
      | Error e ->
        Error (Printf.sprintf "%s: %s" (Ba_ir.Program.proc t.program p).Ba_ir.Proc.name e)
      | Ok () -> check (p + 1)
  in
  check 0
