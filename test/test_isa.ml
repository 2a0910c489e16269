(* Tests for Ba_isa: instruction materialisation, disassembly, and the
   dual-issue pairing model. *)

open Ba_ir
open Ba_isa

let cond ?(behavior = Behavior.Loop 5) t f = Term.Cond { on_true = t; on_false = f; behavior }

let sample_program () =
  let main =
    Proc.make ~name:"main"
      [|
        Block.make ~insns:4 (cond 1 2);
        Block.make ~insns:3 (Term.Jump 0);
        Block.make ~insns:1 Term.Halt;
      |]
  in
  Program.make ~name:"isa" ~seed:77 [| main |]

let listing ?fp_fraction ?decision () =
  let prog = sample_program () in
  let image =
    match decision with
    | None -> Ba_layout.Image.original prog
    | Some d -> Ba_layout.Image.build prog [| d |]
  in
  Codegen.of_image ?fp_fraction image

(* -- Insn ------------------------------------------------------------------ *)

let test_insn_pipes () =
  Alcotest.(check bool) "alu is integer pipe" true (Insn.pipe Insn.Ialu = Insn.Epipe);
  Alcotest.(check bool) "loads use integer pipe" true (Insn.pipe Insn.Load = Insn.Epipe);
  Alcotest.(check bool) "fp ops use fp pipe" true (Insn.pipe Insn.Fmul = Insn.Fpipe);
  Alcotest.(check bool) "branches are branches" true (Insn.is_branch Insn.Cbr);
  Alcotest.(check bool) "halt is not a branch" false (Insn.is_branch Insn.Halt)

(* -- Codegen ---------------------------------------------------------------- *)

let test_codegen_covers_every_address () =
  let l = listing () in
  let image = l.Codegen.image in
  for addr = 0 to image.Ba_layout.Image.total_size - 1 do
    if Codegen.insn_at l addr = None then Alcotest.failf "no instruction at %d" addr
  done

let test_codegen_terminators () =
  let l = listing () in
  (* b0: 4 body insns then a conditional at address 4 targeting b1?  b0's
     taken leg is on_false = b2 (b1 is adjacent). *)
  (match Codegen.insn_at l 4 with
  | Some { Insn.opcode = Insn.Cbr; target = Some t } ->
    (* b0 occupies 0-4, b1 5-8, so b2 starts at 9. *)
    Alcotest.(check int) "cbr targets b2" 9 t
  | _ -> Alcotest.fail "expected conditional at 4");
  (* b1 starts at 5 with 3 body insns; its back jump sits at 8. *)
  match Codegen.insn_at l 8 with
  | Some { Insn.opcode = Insn.Br; target = Some 0 } -> ()
  | _ -> Alcotest.fail "expected back jump to b0"

let test_codegen_deterministic () =
  let l1 = listing () and l2 = listing () in
  let image = l1.Codegen.image in
  for addr = 0 to image.Ba_layout.Image.total_size - 1 do
    if Codegen.insn_at l1 addr <> Codegen.insn_at l2 addr then
      Alcotest.failf "address %d differs across builds" addr
  done

let test_codegen_body_stable_across_layouts () =
  (* A block's straight-line opcodes must not depend on where the layout
     put it: rewriters do not regenerate code. *)
  let prog = sample_program () in
  let l_orig = Codegen.of_image (Ba_layout.Image.original prog) in
  let d = Ba_layout.Decision.of_order [| 0; 2; 1 |] in
  let l_alt = Codegen.of_image (Ba_layout.Image.build prog [| d |]) in
  let body l pos =
    let lb = Ba_layout.Image.lblock l.Codegen.image 0 pos in
    List.filteri (fun i _ -> i < lb.Ba_layout.Linear.insns) (Codegen.block_insns l lb)
    |> List.map (fun i -> i.Insn.opcode)
  in
  (* Block b1 sits at position 1 originally and position 2 in the variant. *)
  Alcotest.(check bool) "b1 body opcodes identical" true (body l_orig 1 = body l_alt 2)

let test_codegen_fp_fraction () =
  let count_fp l =
    let image = l.Codegen.image in
    let fp = ref 0 and total = ref 0 in
    for addr = 0 to image.Ba_layout.Image.total_size - 1 do
      match Codegen.insn_at l addr with
      | Some i when not (Insn.is_branch i.Insn.opcode) ->
        incr total;
        if Insn.pipe i.Insn.opcode = Insn.Fpipe then incr fp
      | _ -> ()
    done;
    (!fp, !total)
  in
  let fp0, _ = count_fp (listing ~fp_fraction:0.0 ()) in
  let fp9, total = count_fp (listing ~fp_fraction:0.9 ()) in
  Alcotest.(check int) "no fp at fraction 0" 0 fp0;
  Alcotest.(check bool) "mostly fp at fraction 0.9" true (fp9 * 2 > total)

(* -- Pairing ---------------------------------------------------------------- *)

let test_pairing_rules () =
  let i op = Insn.make op in
  (* Two integer ops cannot pair. *)
  Alcotest.(check int) "alu;alu" 2 (Pairing.issue_cycles [ i Insn.Ialu; i Insn.Ialu ]);
  (* Integer + fp pair. *)
  Alcotest.(check int) "alu;fadd" 1 (Pairing.issue_cycles [ i Insn.Ialu; i Insn.Fadd ]);
  Alcotest.(check int) "fadd;alu" 1 (Pairing.issue_cycles [ i Insn.Fadd; i Insn.Ialu ]);
  (* Two fp ops cannot pair. *)
  Alcotest.(check int) "fadd;fmul" 2 (Pairing.issue_cycles [ i Insn.Fadd; i Insn.Fmul ]);
  (* A branch ends its issue group: it does not pair with a following op. *)
  Alcotest.(check int) "cbr;fadd" 2 (Pairing.issue_cycles [ i Insn.Cbr; i Insn.Fadd ]);
  (* But an fp op can pair with a following branch. *)
  Alcotest.(check int) "fadd;cbr" 1 (Pairing.issue_cycles [ i Insn.Fadd; i Insn.Cbr ]);
  Alcotest.(check int) "empty" 0 (Pairing.issue_cycles [])

let test_pairing_prefix_consistency () =
  (* The prefix table's full-length entry must equal issue_cycles. *)
  let l = listing ~fp_fraction:0.4 () in
  let prefix = Pairing.prefix_table l in
  Array.iter
    (fun (lb : Ba_layout.Linear.lblock) ->
      let c = prefix.(lb.Ba_layout.Linear.addr) in
      let n = Ba_layout.Linear.block_size lb in
      Alcotest.(check int) "prefix length" (n + 1) (Array.length c);
      Alcotest.(check int) "full prefix equals issue_cycles"
        (Pairing.block_cycles l lb) c.(n);
      (* Prefixes are monotone and bounded by k. *)
      for k = 1 to n do
        if c.(k) < c.(k - 1) then Alcotest.fail "prefix not monotone";
        if c.(k) > k then Alcotest.fail "prefix exceeds instruction count"
      done)
    l.Codegen.image.Ba_layout.Image.linears.(0).Ba_layout.Linear.blocks

let test_pairing_fp_code_issues_faster () =
  let cycles fp_fraction =
    let l = listing ~fp_fraction () in
    let tbl = Pairing.per_block_table l in
    Hashtbl.fold (fun _ c acc -> acc + c) tbl 0
  in
  Alcotest.(check bool) "fp-heavy code dual-issues more" true (cycles 0.5 < cycles 0.0)

(* -- Disasm ----------------------------------------------------------------- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  scan 0

let test_disasm_listing () =
  let l = listing () in
  let s = Disasm.proc_listing l 0 in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains s needle))
    [ "main:"; "b0:"; "b1:"; "b2:"; "bne"; "br"; "call_pal halt"; "main:b0" ]

let test_disasm_side_by_side () =
  let prog = sample_program () in
  let profile = Ba_exec.Engine.profile_program prog in
  let original = Codegen.of_image (Ba_layout.Image.original ~profile prog) in
  let aligned =
    Codegen.of_image
      (Ba_core.Align.image (Ba_core.Align.Tryn 15) ~arch:Ba_core.Cost_model.Fallthrough
         profile)
  in
  let s = Disasm.side_by_side ~original ~aligned 0 in
  Alcotest.(check bool) "header" true (contains s "ORIGINAL");
  Alcotest.(check bool) "separator" true (contains s " | ")

let test_alpha_pairing_integration () =
  (* The Alpha model with a listing must count more base cycles for pure
     integer code than for fp-heavy code of the same program. *)
  let prog = sample_program () in
  let image = Ba_layout.Image.original prog in
  let cycles fp_fraction =
    let r, a = Ba_sim.Runner.simulate_alpha ~fp_fraction image in
    Ba_sim.Alpha.cycles a ~insns:r.Ba_exec.Engine.insns
  in
  Alcotest.(check bool) "fp pairs better end to end" true (cycles 0.9 < cycles 0.0)

let suites =
  [
    ("isa.insn", [ Alcotest.test_case "pipes" `Quick test_insn_pipes ]);
    ( "isa.codegen",
      [
        Alcotest.test_case "covers every address" `Quick test_codegen_covers_every_address;
        Alcotest.test_case "terminators" `Quick test_codegen_terminators;
        Alcotest.test_case "deterministic" `Quick test_codegen_deterministic;
        Alcotest.test_case "body stable across layouts" `Quick
          test_codegen_body_stable_across_layouts;
        Alcotest.test_case "fp fraction" `Quick test_codegen_fp_fraction;
      ] );
    ( "isa.pairing",
      [
        Alcotest.test_case "rules" `Quick test_pairing_rules;
        Alcotest.test_case "prefix consistency" `Quick test_pairing_prefix_consistency;
        Alcotest.test_case "fp issues faster" `Quick test_pairing_fp_code_issues_faster;
      ] );
    ( "isa.disasm",
      [
        Alcotest.test_case "listing" `Quick test_disasm_listing;
        Alcotest.test_case "side by side" `Quick test_disasm_side_by_side;
        Alcotest.test_case "alpha integration" `Quick test_alpha_pairing_integration;
      ] );
  ]
