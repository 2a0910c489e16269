open Ba_layout

(* One slot per image address: -1 where no conditional branch sits, else
   the hint as 0/1.  Pcs are dense layout addresses, so an array indexed by
   pc replaces a hashtable lookup (and its option) on every conditional. *)
type t = { hints : int array; count : int }

let build (image : Image.t) profile =
  let hints = Array.make image.Image.total_size (-1) in
  let count = ref 0 in
  Array.iteri
    (fun p (linear : Linear.t) ->
      Array.iter
        (fun (lb : Linear.lblock) ->
          match lb.Linear.term with
          | Linear.Lcond { taken_on; _ } ->
            let n_true, n_false = Ba_cfg.Profile.cond_counts profile p lb.Linear.src in
            let majority_outcome = n_true >= n_false in
            incr count;
            hints.(Linear.branch_pc lb) <- Bool.to_int (majority_outcome = taken_on)
          | Linear.Lnone | Linear.Ljump _ | Linear.Lswitch _ | Linear.Lcall _
          | Linear.Lvcall _ | Linear.Lret | Linear.Lhalt -> ())
        linear.Linear.blocks)
    image.Image.linears;
  { hints; count = !count }

let hint t pc =
  let h = if pc >= 0 && pc < Array.length t.hints then t.hints.(pc) else -1 in
  if h < 0 then
    invalid_arg (Printf.sprintf "Likely_bits.hint: %d is not a conditional branch" pc);
  h = 1

let count t = t.count
