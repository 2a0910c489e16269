open Ba_layout
open Ba_core

(* Incremental static cost.  The per-position [Layout_cost.site] values are
   cached; a local move re-lowers (via [Lower.term_at]) and re-prices only
   the positions whose cost the move can change:

   - [Force (b, _)] rewrites block [b]'s own lowering only — its window is
     the single position holding [b];
   - [Swap i] changes which blocks sit at positions [i] and [i+1] and the
     fall-through successor of position [i-1] — the window is
     [{i-1, i, i+1}].

   Positions outside the window keep their cached value, which stays
   bit-equal to a fresh re-lowering: [Layout_cost.site_cost] reads a
   position's own term and index but never assigned addresses, and the
   taken-direction predicate [taken_pos <= pos] is invariant outside the
   window (an adjacent swap moves a target between positions [i] and
   [i+1], which changes the comparison only for a branch sitting at
   position [i] — inside the window).  Cached terms may carry stale
   [taken_pos] numbers after later commits, but always on the same side of
   their own position, so every cached cost equals the freshly-lowered
   one.  The differential tests assert this equality per position. *)

type t = {
  proc : Ba_ir.Proc.t;
  arch : Cost_model.arch;
  table : Cost_model.table;
  visits : Ba_ir.Term.block_id -> int;
  cond_counts : Ba_ir.Term.block_id -> int * int;
  order : Ba_ir.Term.block_id array;
  pos : int array;
  neither : Decision.jump_leg option array;
  linear : Linear.t;  (* blocks mutated in place; [decision] field is a snapshot *)
  sites : Layout_cost.site array;
}

let relower t j =
  let b = t.order.(j) in
  let blk = Ba_ir.Proc.block t.proc b in
  let term =
    Lower.term_at ~cond_counts:t.cond_counts t.proc ~order:t.order ~pos:t.pos
      ~neither:t.neither j
  in
  t.linear.Linear.blocks.(j) <-
    { Linear.src = b; insns = blk.Ba_ir.Block.insns; term; addr = 0 };
  t.sites.(j) <-
    Layout_cost.site_cost ~arch:t.arch ~table:t.table ~visits:t.visits
      ~cond_counts:t.cond_counts t.linear j

let create ~arch ?(table = Cost_model.default_table) ~visits ~cond_counts proc
    (decision : Decision.t) =
  (match Decision.validate proc decision with
  | Error e -> invalid_arg ("Ba_delta.Model.create: " ^ e)
  | Ok () -> ());
  let linear = Lower.lower ~cond_counts proc decision in
  let n = Array.length decision.Decision.order in
  let t =
    {
      proc;
      arch;
      table;
      visits;
      cond_counts;
      order = Array.copy decision.Decision.order;
      pos = Decision.position decision;
      neither = Array.copy decision.Decision.neither;
      linear;
      sites = Array.make n Layout_cost.{
        s_straight = 0.0; s_cond = 0.0; s_uncond = 0.0; s_calls = 0.0;
        s_indirect = 0.0; s_returns = 0.0 };
    }
  in
  for j = 0 to n - 1 do
    t.sites.(j) <-
      Layout_cost.site_cost ~arch ~table ~visits ~cond_counts linear j
  done;
  t

let n_positions t = Array.length t.order

let decision t =
  Decision.of_order ~neither:(Array.copy t.neither) (Array.copy t.order)

(* Same fold as [Layout_cost.evaluate] followed by [branch_cost]'s
   subtraction, so the result is bit-equal to pricing a fresh lowering. *)
let total t =
  let straight = ref 0.0 in
  let cond = ref 0.0 in
  let uncond = ref 0.0 in
  let calls = ref 0.0 in
  let indirect = ref 0.0 in
  let returns = ref 0.0 in
  Array.iter
    (fun (s : Layout_cost.site) ->
      straight := !straight +. s.Layout_cost.s_straight;
      cond := !cond +. s.Layout_cost.s_cond;
      uncond := !uncond +. s.Layout_cost.s_uncond;
      calls := !calls +. s.Layout_cost.s_calls;
      indirect := !indirect +. s.Layout_cost.s_indirect;
      returns := !returns +. s.Layout_cost.s_returns)
    t.sites;
  let all = !straight +. !cond +. !uncond +. !calls +. !indirect +. !returns in
  all -. !straight

let branch_site (s : Layout_cost.site) =
  s.Layout_cost.s_cond +. s.Layout_cost.s_uncond +. s.Layout_cost.s_calls
  +. s.Layout_cost.s_indirect +. s.Layout_cost.s_returns

let check_swap t i =
  let n = Array.length t.order in
  if i < 1 || i + 1 > n - 1 then
    invalid_arg
      (Printf.sprintf "Ba_delta.Model: swap(%d,%d) out of range (entry pinned, %d blocks)"
         i (i + 1) n)

let window t = function
  | Move.Swap i ->
    check_swap t i;
    [ i - 1; i; i + 1 ]
  | Move.Force (b, _) ->
    if b < 0 || b >= Array.length t.pos then
      invalid_arg "Ba_delta.Model: forced block out of range";
    [ t.pos.(b) ]

let apply_arrays t = function
  | Move.Swap i ->
    let a = t.order.(i) and b = t.order.(i + 1) in
    t.order.(i) <- b;
    t.order.(i + 1) <- a;
    t.pos.(a) <- i + 1;
    t.pos.(b) <- i
  | Move.Force (b, leg) -> t.neither.(b) <- leg

(* Apply [m], recompute its window, run [f], then restore arrays, blocks
   and sites exactly. *)
let with_move t m f =
  let w = window t m in
  let saved_leg =
    match m with Move.Force (b, _) -> Some t.neither.(b) | Move.Swap _ -> None
  in
  let saved =
    List.map (fun j -> (j, t.linear.Linear.blocks.(j), t.sites.(j))) w
  in
  apply_arrays t m;
  List.iter (relower t) w;
  let r = f w in
  (match (m, saved_leg) with
  | Move.Swap i, _ -> apply_arrays t (Move.Swap i)
  | Move.Force (b, _), Some leg -> t.neither.(b) <- leg
  | Move.Force _, None -> assert false);
  List.iter
    (fun (j, blk, s) ->
      t.linear.Linear.blocks.(j) <- blk;
      t.sites.(j) <- s)
    saved;
  r

let preview t m = with_move t m (fun _ -> total t)

let window_sum t w =
  List.fold_left (fun acc j -> acc +. branch_site t.sites.(j)) 0.0 w

let delta t m =
  let old_sum = window_sum t (window t m) in
  with_move t m (fun w -> window_sum t w) -. old_sum

let commit t m =
  let w = window t m in
  apply_arrays t m;
  List.iter (relower t) w
