let issue_cycles insns =
  let rec go cycles = function
    | [] -> cycles
    | [ _ ] -> cycles + 1
    | a :: (b :: rest as tail) ->
      if
        Insn.pipe a.Insn.opcode <> Insn.pipe b.Insn.opcode
        && not (Insn.is_branch a.Insn.opcode)
      then go (cycles + 1) rest
      else go (cycles + 1) tail
  in
  go 0 insns

let block_cycles listing lb = issue_cycles (Codegen.block_insns listing lb)

let prefix_cycles insns =
  (* c.(k) = issue cycles of the first k instructions. *)
  let n = List.length insns in
  let c = Array.make (n + 1) 0 in
  let rec go k cycles = function
    | [] -> ()
    | [ _ ] -> c.(k + 1) <- cycles + 1
    | a :: (b :: rest as tail) ->
      if
        Insn.pipe a.Insn.opcode <> Insn.pipe b.Insn.opcode
        && not (Insn.is_branch a.Insn.opcode)
      then begin
        (* a and b issue together. *)
        c.(k + 1) <- cycles + 1;
        c.(k + 2) <- cycles + 1;
        go (k + 2) (cycles + 1) rest
      end
      else begin
        c.(k + 1) <- cycles + 1;
        go (k + 1) (cycles + 1) tail
      end
  in
  go 0 0 insns;
  c

let prefix_table (listing : Codegen.listing) =
  let image = listing.Codegen.image in
  let tbl = Array.make image.Ba_layout.Image.total_size [||] in
  Array.iter
    (fun (linear : Ba_layout.Linear.t) ->
      Array.iter
        (fun (lb : Ba_layout.Linear.lblock) ->
          tbl.(lb.Ba_layout.Linear.addr) <- prefix_cycles (Codegen.block_insns listing lb))
        linear.Ba_layout.Linear.blocks)
    image.Ba_layout.Image.linears;
  tbl

let per_block_table (listing : Codegen.listing) =
  let tbl = Hashtbl.create 256 in
  Array.iter
    (fun (linear : Ba_layout.Linear.t) ->
      Array.iter
        (fun (lb : Ba_layout.Linear.lblock) ->
          Hashtbl.replace tbl lb.Ba_layout.Linear.addr (block_cycles listing lb))
        linear.Ba_layout.Linear.blocks)
    listing.Codegen.image.Ba_layout.Image.linears;
  tbl
