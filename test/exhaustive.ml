open Ba_ir
open Ba_layout
open Ba_core

let max_blocks = 9

(* Heap's algorithm, calling [f] on every permutation of [a] in place. *)
let iter_permutations a f =
  let n = Array.length a in
  let c = Array.make n 0 in
  f a;
  let i = ref 0 in
  while !i < n do
    if c.(!i) < !i then begin
      let j = if !i mod 2 = 0 then 0 else c.(!i) in
      let tmp = a.(j) in
      a.(j) <- a.(!i);
      a.(!i) <- tmp;
      f a;
      c.(!i) <- c.(!i) + 1;
      i := 0
    end
    else begin
      c.(!i) <- 0;
      incr i
    end
  done

let conds_of proc =
  Array.to_list proc.Proc.blocks
  |> List.mapi (fun b (blk : Block.t) -> (b, blk.term))
  |> List.filter_map (fun (b, term) ->
         match term with Term.Cond _ -> Some b | _ -> None)

let align_proc ~arch ?(table = Cost_model.default_table) profile pid =
  let program = Ba_cfg.Profile.program profile in
  let proc = Program.proc program pid in
  let n = Proc.n_blocks proc in
  if n > max_blocks then
    invalid_arg
      (Printf.sprintf "Exhaustive.align_proc: %d blocks exceeds the %d-block limit" n
         max_blocks);
  let visits b = Ba_cfg.Profile.visits profile pid b in
  let cond_counts b = Ba_cfg.Profile.cond_counts profile pid b in
  let cost decision =
    Layout_cost.branch_cost ~arch ~table ~visits ~cond_counts
      (Lower.lower ~cond_counts proc decision)
  in
  let conds = conds_of proc in
  let best_cost = ref infinity in
  let best = ref (Decision.identity proc) in
  let consider order =
    (* Site costs are independent given the block positions, so the best
       forced jump-leg choice can be picked one conditional at a time. *)
    let neither = Array.make n None in
    let base = ref (cost (Decision.of_order ~neither:(Array.copy neither) order)) in
    List.iter
      (fun b ->
        List.iter
          (fun leg ->
            let previous = neither.(b) in
            neither.(b) <- Some leg;
            let c = cost (Decision.of_order ~neither:(Array.copy neither) order) in
            if c < !base then base := c else neither.(b) <- previous)
          [ Decision.Jump_on_true; Decision.Jump_on_false ])
      conds;
    if !base < !best_cost then begin
      best_cost := !base;
      best := Decision.of_order ~neither:(Array.copy neither) (Array.copy order)
    end
  in
  if n = 1 then Decision.identity proc
  else begin
    let rest = Array.init (n - 1) (fun i -> i + 1) in
    iter_permutations rest (fun perm ->
        consider (Array.append [| Proc.entry |] perm));
    !best
  end

let optimal_cost ~arch ?table profile pid =
  let program = Ba_cfg.Profile.program profile in
  let proc = Program.proc program pid in
  let decision = align_proc ~arch ?table profile pid in
  let visits b = Ba_cfg.Profile.visits profile pid b in
  let cond_counts b = Ba_cfg.Profile.cond_counts profile pid b in
  Layout_cost.branch_cost ~arch
    ?table
    ~visits ~cond_counts
    (Lower.lower ~cond_counts proc decision)
