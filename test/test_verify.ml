(* Tests for Ba_verify: the translation validator's acceptance of genuine
   lowered layouts and its rejection of corrupted ones (mutation testing),
   cost certificates and their digests, the optimality audit, and the JSON
   emitter behind --format=json.

   The mutation tests are the teeth of the suite: four corruption classes
   (branch sense flipped, jump retargeted, block dropped, two blocks
   shuffled — all without fixups) are enumerated exhaustively over real
   workload images, and the validator must reject every single mutant while
   accepting every genuine output. *)

open Ba_layout

let max_steps = 20_000

let algo = Ba_core.Align.Tryn 15
let arch = Ba_core.Cost_model.Btfnt

(* One aligned image per workload, built once and shared by the tests. *)
let images =
  lazy
    (List.map
       (fun (w : Ba_workloads.Spec.t) ->
         let program = w.Ba_workloads.Spec.build () in
         let profile = Ba_exec.Engine.profile_program ~max_steps program in
         let decisions = Ba_core.Align.align_program algo ~arch profile in
         (w.Ba_workloads.Spec.name, profile, Image.build ~profile program decisions))
       Ba_workloads.Spec.all)

let image_of name =
  let _, _, image =
    List.find (fun (n, _, _) -> n = name) (Lazy.force images)
  in
  image

let accepts ~proc_id linear =
  match Ba_verify.Bisim.verify ~proc_id linear with
  | Ok _ -> true
  | Error _ -> false

(* --- Mutation machinery ------------------------------------------------- *)

(* Fresh records throughout, so mutating one variant never aliases the
   original image ([addr] is mutable). *)
let copy_linear (l : Linear.t) =
  {
    l with
    Linear.blocks =
      Array.map (fun lb -> { lb with Linear.addr = lb.Linear.addr }) l.Linear.blocks;
  }

let with_term (l : Linear.t) pos term =
  let c = copy_linear l in
  c.Linear.blocks.(pos) <- { c.Linear.blocks.(pos) with Linear.term };
  c

(* Class 1: flip the sense of a conditional branch.  The taken leg now
   carries the wrong semantic outcome; [bisim/edge-mismatch] must fire
   (conditionals have distinct targets, enforced by Proc.validate). *)
let flip_sense_mutants l =
  let out = ref [] in
  Array.iteri
    (fun pos (lb : Linear.lblock) ->
      match lb.Linear.term with
      | Linear.Lcond { taken_pos; taken_on; inserted_jump } ->
        out :=
          ( "flip-sense", pos,
            with_term l pos
              (Linear.Lcond { taken_pos; taken_on = not taken_on; inserted_jump }) )
          :: !out
      | _ -> ())
    l.Linear.blocks;
  !out

(* Class 2: retarget a branch to a different in-range position.  A
   position maps to exactly one source block (the relation is a
   bijection), so the realised edge no longer matches any original one. *)
let retarget_mutants l =
  let n = Array.length l.Linear.blocks in
  let out = ref [] in
  if n >= 2 then
    Array.iteri
      (fun pos (lb : Linear.lblock) ->
        match lb.Linear.term with
        | Linear.Ljump t ->
          out := ("retarget", pos, with_term l pos (Linear.Ljump ((t + 1) mod n))) :: !out
        | Linear.Lcond { taken_pos; taken_on; inserted_jump } ->
          let taken_pos = (taken_pos + 1) mod n in
          out :=
            ( "retarget", pos,
              with_term l pos (Linear.Lcond { taken_pos; taken_on; inserted_jump }) )
            :: !out
        | _ -> ())
      l.Linear.blocks;
  !out

(* Class 3: drop a block outright.  The relation can no longer be a
   bijection; [bisim/block-count] must fire. *)
let drop_block_mutants l =
  let n = Array.length l.Linear.blocks in
  if n < 2 then []
  else
    List.init n (fun pos ->
        let c = copy_linear l in
        let blocks =
          Array.init (n - 1) (fun i ->
              c.Linear.blocks.(if i < pos then i else i + 1))
        in
        ("drop-block", pos, { c with Linear.blocks }))

(* Class 4: shuffle two blocks without fixing up positions or addresses.
   Either the entry leaves position 0, or some incoming edge now lands on
   the wrong source block, or the address map breaks. *)
let swap_mutants l =
  let n = Array.length l.Linear.blocks in
  let out = ref [] in
  for i = 0 to n - 2 do
    for j = i + 1 to n - 1 do
      let c = copy_linear l in
      let tmp = c.Linear.blocks.(i) in
      c.Linear.blocks.(i) <- c.Linear.blocks.(j);
      c.Linear.blocks.(j) <- tmp;
      out := ("swap", i * n + j, c) :: !out
    done
  done;
  !out

let mutant_workloads = [ "espresso"; "li"; "gcc" ]

(* (description, proc_id, mutant) for every mutant of every corruption
   class over the chosen workloads. *)
let all_mutants =
  lazy
    (List.concat_map
       (fun name ->
         let image = image_of name in
         List.concat
           (List.init
              (Array.length image.Image.linears)
              (fun pid ->
                let l = image.Image.linears.(pid) in
                List.map
                  (fun (cls, site, m) ->
                    (Printf.sprintf "%s/p%d/%s@%d" name pid cls site, pid, m))
                  (flip_sense_mutants l @ retarget_mutants l
                 @ drop_block_mutants l @ swap_mutants l))))
       mutant_workloads)

(* --- Acceptance --------------------------------------------------------- *)

let test_accepts_genuine () =
  List.iter
    (fun (name, _, image) ->
      Array.iteri
        (fun pid linear ->
          Alcotest.(check bool)
            (Printf.sprintf "%s proc %d bisimulates" name pid)
            true (accepts ~proc_id:pid linear))
        image.Image.linears)
    (Lazy.force images)

let test_witness_shape () =
  let image = image_of "espresso" in
  Array.iteri
    (fun pid linear ->
      match Ba_verify.Bisim.verify ~proc_id:pid linear with
      | Error _ -> Alcotest.fail "expected acceptance"
      | Ok w ->
        let n = Array.length linear.Linear.blocks in
        Alcotest.(check int) "one relation entry per block" n
          (Array.length w.Ba_verify.Bisim.position);
        (* position.(src) really is where that source block sits *)
        Array.iteri
          (fun pos (lb : Linear.lblock) ->
            Alcotest.(check int) "witness maps src to pos" pos
              w.Ba_verify.Bisim.position.(lb.Linear.src))
          linear.Linear.blocks)
    image.Image.linears

(* --- 100% mutation kill rate -------------------------------------------- *)

let test_kills_every_mutant () =
  let total = ref 0 in
  List.iter
    (fun (desc, pid, mutant) ->
      incr total;
      if accepts ~proc_id:pid mutant then
        Alcotest.failf "mutant survived the validator: %s" desc)
    (Lazy.force all_mutants);
  (* the enumeration must be non-trivial for the kill rate to mean much *)
  Alcotest.(check bool) "enumerated a real mutant population" true (!total > 100)

(* Randomised spot checks drawn from the same population, so failures
   shrink to a single mutant index. *)
let qcheck_mutants =
  QCheck.Test.make ~count:200 ~name:"validator rejects sampled mutants"
    QCheck.(small_nat)
    (fun i ->
      let mutants = Lazy.force all_mutants in
      let _, pid, mutant = List.nth mutants (i mod List.length mutants) in
      not (accepts ~proc_id:pid mutant))

(* --- Certificates ------------------------------------------------------- *)

let verify_espresso =
  lazy
    (let program =
       (List.find
          (fun (w : Ba_workloads.Spec.t) -> w.Ba_workloads.Spec.name = "espresso")
          Ba_workloads.Spec.all)
         .Ba_workloads.Spec.build ()
     in
     let profile = Ba_exec.Engine.profile_program ~max_steps program in
     Ba_verify.Run.verify ~arch ~profile (Ba_delta.Algo.Core algo))

let test_certificates_issued () =
  let r = Lazy.force verify_espresso in
  Alcotest.(check bool) "verified" true r.Ba_verify.Run.verified;
  Alcotest.(check int) "one certificate per architecture"
    (List.length Ba_core.Cost_model.all_arches)
    (List.length r.Ba_verify.Run.certificates);
  List.iter
    (fun (c : Ba_verify.Certificate.t) ->
      Alcotest.(check bool)
        (Printf.sprintf "digest of %s checks out" c.Ba_verify.Certificate.arch)
        true
        (Ba_verify.Certificate.digest_ok c);
      Alcotest.(check bool) "certified cost agrees with the evaluator" true
        (Float.abs
           (c.Ba_verify.Certificate.branch_cycles
           -. c.Ba_verify.Certificate.evaluator_cycles)
        < 1e-3))
    r.Ba_verify.Run.certificates

let test_certificate_tamper () =
  let r = Lazy.force verify_espresso in
  let c = List.hd r.Ba_verify.Run.certificates in
  let tampered =
    { c with Ba_verify.Certificate.branch_cycles = c.Ba_verify.Certificate.branch_cycles +. 1.0 }
  in
  Alcotest.(check bool) "tampered cycles break the digest" false
    (Ba_verify.Certificate.digest_ok tampered);
  let renamed = { c with Ba_verify.Certificate.workload = "espresso2" } in
  Alcotest.(check bool) "tampered workload breaks the digest" false
    (Ba_verify.Certificate.digest_ok renamed)

let test_digest_deterministic () =
  Alcotest.(check string) "fnv1a64 is stable"
    (Ba_verify.Certificate.fnv1a64 "branch alignment")
    (Ba_verify.Certificate.fnv1a64 "branch alignment");
  Alcotest.(check bool) "fnv1a64 separates close inputs" false
    (Ba_verify.Certificate.fnv1a64 "branch alignment"
    = Ba_verify.Certificate.fnv1a64 "branch alignment ")

(* --- Optimality audit --------------------------------------------------- *)

let test_audit_finds_improvements () =
  (* The original (unaligned) layout of espresso is known-improvable —
     that is the paper's whole point — so the audit must say something. *)
  let program =
    (List.find
       (fun (w : Ba_workloads.Spec.t) -> w.Ba_workloads.Spec.name = "espresso")
       Ba_workloads.Spec.all)
      .Ba_workloads.Spec.build ()
  in
  let r =
    Ba_verify.Run.verify ~arch
      ~profile:(Ba_exec.Engine.profile_program ~max_steps program)
      (Ba_delta.Algo.Core Ba_core.Align.Original)
  in
  Alcotest.(check bool) "original layout still verifies" true
    r.Ba_verify.Run.verified;
  Alcotest.(check bool) "audit reports improvable sites" true
    (r.Ba_verify.Run.audit <> []);
  List.iter
    (fun (d : Ba_analysis.Diagnostic.t) ->
      Alcotest.(check bool) "audit findings are informational" true
        (d.Ba_analysis.Diagnostic.severity = Ba_analysis.Diagnostic.Info))
    r.Ba_verify.Run.audit

(* --- One pipeline --------------------------------------------------------- *)

(* Visits of every span named [name] in a registry's span tree. *)
let span_visits registry name =
  let rec visits acc (s : Ba_obs.Registry.span) =
    List.fold_left visits
      (if s.Ba_obs.Registry.name = name then acc + s.Ba_obs.Registry.count else acc)
      s.Ba_obs.Registry.children
  in
  List.fold_left visits 0 (Ba_obs.Registry.spans registry)

(* Lint aligns the layout under test once and checks the image stage 5
   lowered; verify proves that same image instead of building another.
   On compress (two procedures) lint's only other alignments and
   lowerings are the bound lint's three rival layouts (orig's is the
   identity, with no align span): 6 align and 4 lower spans, where
   aligning the layout under test twice opens 8 and 5.  Verify opens 5
   lower spans, where a second build opens 6. *)
let test_pipeline_builds_once () =
  let w = Option.get (Ba_workloads.Spec.by_name "compress") in
  let _program, profile, trace = Ba_workloads.Profiled.get_traced ~max_steps w in
  let algo = Ba_delta.Algo.Core algo in
  let spans f =
    let registry = Ba_obs.Registry.create () in
    Ba_obs.Registry.with_registry registry f;
    (span_visits registry "align", span_visits registry "lower")
  in
  let align, lower =
    spans (fun () ->
        let report = Ba_verify.Run.lint ~trace ~arch ~profile algo in
        Alcotest.(check bool) "bound stage ran" true
          (Ba_analysis.Run.ran report Ba_analysis.Run.Bound))
  in
  Alcotest.(check bool)
    (Printf.sprintf "lint: %d align spans <= 6" align) true (align <= 6);
  Alcotest.(check bool)
    (Printf.sprintf "lint: %d lower spans <= 4" lower) true (lower <= 4);
  let _align, verify_lower =
    spans (fun () ->
        let r = Ba_verify.Run.verify ~trace ~arch ~profile algo in
        Alcotest.(check bool) "verified" true r.Ba_verify.Run.verified)
  in
  Alcotest.(check bool)
    (Printf.sprintf "verify: %d lower spans <= 5" verify_lower)
    true (verify_lower <= 5);
  Printf.printf "pipeline spans: lint %d align, %d lower; verify %d lower\n"
    align lower verify_lower

(* Lint and verify audit the same layout with the same trace, so their
   findings agree to the letter, simulator figures included.  On wave5's
   Greedy layout under FALLTHROUGH one suggested move saves 2376.0
   expected cycles and 3572 simulated ones. *)
let test_lint_audit_is_verify_audit () =
  let w = Option.get (Ba_workloads.Spec.by_name "wave5") in
  let _program, profile, trace = Ba_workloads.Profiled.get_traced ~max_steps w in
  let arch = Ba_core.Cost_model.Fallthrough in
  let algo = Ba_delta.Algo.Core Ba_core.Align.Greedy in
  let rows ds = List.map Ba_analysis.Diagnostic.to_row ds in
  let lint =
    List.assoc Ba_analysis.Run.Audit
      (Ba_verify.Run.lint ~trace ~arch ~profile algo).Ba_analysis.Run.stages
  in
  let verify = (Ba_verify.Run.verify ~trace ~arch ~profile algo).Ba_verify.Run.audit in
  Alcotest.(check (list (list string))) "lint's audit = verify's" (rows verify)
    (rows lint);
  Alcotest.(check bool) "lint quotes the simulator figure" true
    (List.exists
       (fun (d : Ba_analysis.Diagnostic.t) ->
         Test_util.contains_substring d.Ba_analysis.Diagnostic.message
           "(simulator: +3572 cycles)")
       lint)

(* --- JSON emitter ------------------------------------------------------- *)

let test_json_escaping () =
  let open Ba_util.Json in
  Alcotest.(check string) "string escapes"
    "\"a\\\"b\\\\c\\nd\\te\\u0001\""
    (to_string (String "a\"b\\c\nd\te\x01"));
  Alcotest.(check string) "nested document"
    "{\"k\":[1,true,null,\"v\"],\"f\":2.5}"
    (to_string (Obj [ ("k", List [ Int 1; Bool true; Null; String "v" ]); ("f", Float 2.5) ]));
  Alcotest.(check string) "non-finite floats become null" "null"
    (to_string (Float Float.nan))

let test_diagnostic_json () =
  let d =
    {
      Ba_analysis.Diagnostic.severity = Ba_analysis.Diagnostic.Error;
      rule = "bisim/edge-mismatch";
      loc =
        Ba_analysis.Diagnostic.Layout_pos { proc = 1; proc_name = "main"; pos = 3 };
      message = "an \"edge\" went missing";
    }
  in
  Alcotest.(check string) "diagnostic serialises"
    "{\"severity\":\"error\",\"rule\":\"bisim/edge-mismatch\",\"location\":{\"kind\":\"layout_pos\",\"proc\":1,\"proc_name\":\"main\",\"pos\":3},\"message\":\"an \\\"edge\\\" went missing\"}"
    (Ba_util.Json.to_string (Ba_analysis.Diagnostic.to_json d))

let suites =
  [
    ( "verify.bisim",
      [
        Alcotest.test_case "accepts every genuine layout" `Slow test_accepts_genuine;
        Alcotest.test_case "witness maps blocks to positions" `Quick test_witness_shape;
      ] );
    ( "verify.mutation",
      [
        Alcotest.test_case "kills all four corruption classes" `Slow
          test_kills_every_mutant;
        QCheck_alcotest.to_alcotest qcheck_mutants;
      ] );
    ( "verify.certificate",
      [
        Alcotest.test_case "issues checked certificates" `Quick test_certificates_issued;
        Alcotest.test_case "detects tampering" `Quick test_certificate_tamper;
        Alcotest.test_case "digest is deterministic" `Quick test_digest_deterministic;
      ] );
    ( "verify.audit",
      [
        Alcotest.test_case "flags the unaligned layout" `Quick
          test_audit_finds_improvements;
      ] );
    ( "verify.pipeline",
      [
        Alcotest.test_case "lint aligns once, verify builds once" `Quick
          test_pipeline_builds_once;
        Alcotest.test_case "lint's audit is verify's audit" `Quick
          test_lint_audit_is_verify_audit;
      ] );
    ( "verify.json",
      [
        Alcotest.test_case "escaping and rendering" `Quick test_json_escaping;
        Alcotest.test_case "diagnostic serialisation" `Quick test_diagnostic_json;
      ] );
  ]
