(* Tests for Ba_predict: counters, static rules, PHTs, BTB, return stack,
   Alpha history bits, likely bits. *)

open Ba_predict

(* -- Counter2 ---------------------------------------------------------- *)

let test_counter_saturation () =
  let c = ref Counter2.initial in
  for _ = 1 to 10 do
    c := Counter2.update !c ~taken:true
  done;
  Alcotest.(check bool) "predicts taken" true (Counter2.predict !c);
  Alcotest.(check int) "saturates at 3" 3 (!c :> int);
  for _ = 1 to 10 do
    c := Counter2.update !c ~taken:false
  done;
  Alcotest.(check bool) "predicts not-taken" false (Counter2.predict !c);
  Alcotest.(check int) "saturates at 0" 0 (!c :> int)

let test_counter_hysteresis () =
  (* From strongly taken, a single not-taken must not flip the prediction. *)
  let c = Counter2.update Counter2.strongly_taken ~taken:false in
  Alcotest.(check bool) "still predicts taken" true (Counter2.predict c)

let test_counter_initial_not_taken () =
  Alcotest.(check bool) "cold counter predicts fall-through" false
    (Counter2.predict Counter2.initial)

(* -- Static_rule --------------------------------------------------------- *)

let test_static_rules () =
  let p rule ~pc ~tt = Static_rule.predict_taken rule ~pc ~taken_target:tt in
  Alcotest.(check bool) "fallthrough never taken" false
    (p Static_rule.Fallthrough ~pc:100 ~tt:50);
  Alcotest.(check bool) "btfnt backward taken" true (p Static_rule.Btfnt ~pc:100 ~tt:50);
  Alcotest.(check bool) "btfnt forward not taken" false (p Static_rule.Btfnt ~pc:100 ~tt:150);
  Alcotest.(check bool) "btfnt self counts backward" true (p Static_rule.Btfnt ~pc:100 ~tt:100);
  let likely = Static_rule.Likely (fun pc -> pc = 42) in
  Alcotest.(check bool) "likely hint true" true (p likely ~pc:42 ~tt:0);
  Alcotest.(check bool) "likely hint false" false (p likely ~pc:43 ~tt:0)

(* -- Pht ------------------------------------------------------------------ *)

let test_pht_learns_bias () =
  let pht = Pht.create_direct ~entries:16 in
  (* each access answers before it trains: the cold counter (weakly
     not-taken) is wrong once, then right *)
  let answers = List.init 4 (fun _ -> Pht.access pht ~pc:5 ~taken:true) in
  Alcotest.(check (list bool)) "answers before training" [ false; true; true; true ] answers;
  Alcotest.(check bool) "learned taken" true (Pht.predict pht ~pc:5);
  Alcotest.(check bool) "other entry unaffected" false (Pht.predict pht ~pc:6)

let test_pht_aliasing () =
  (* pc 5 and pc 21 collide in a 16-entry direct-mapped table. *)
  let pht = Pht.create_direct ~entries:16 in
  for _ = 1 to 4 do
    ignore (Pht.access pht ~pc:5 ~taken:true : bool)
  done;
  Alcotest.(check bool) "aliased entry shares state" true (Pht.predict pht ~pc:21)

let test_pht_rejects_bad_sizes () =
  Alcotest.(check bool) "non power of two raises" true
    (try
       ignore (Pht.create_direct ~entries:12);
       false
     with Invalid_argument _ -> true)

let test_gshare_learns_alternation () =
  (* A strictly alternating branch defeats a per-address 2-bit counter but
     is perfectly predictable from 1 bit of global history. *)
  let run pht =
    let correct = ref 0 in
    let n = 1000 in
    for i = 1 to n do
      let taken = i mod 2 = 0 in
      if Pht.access pht ~pc:77 ~taken = taken then incr correct
    done;
    float_of_int !correct /. 1000.0
  in
  let gshare_acc = run (Pht.create_gshare ~entries:256 ~history_bits:8) in
  let direct_acc = run (Pht.create_direct ~entries:256) in
  Alcotest.(check bool)
    (Printf.sprintf "gshare (%.2f) beats direct (%.2f) on alternation" gshare_acc direct_acc)
    true
    (gshare_acc > 0.95 && direct_acc < 0.7)

let test_gshare_history_masking () =
  let pht = Pht.create_gshare ~entries:16 ~history_bits:4 in
  (* Just exercise access through enough history wrap-arounds. *)
  for i = 0 to 100 do
    ignore (Pht.access pht ~pc:i ~taken:(i mod 3 = 0) : bool)
  done;
  Alcotest.(check int) "entries" 16 (Pht.entries pht)

(* -- Btb ------------------------------------------------------------------- *)

(* [Btb.access] and [Btb.probe] pack their answer: -1 on a miss, else
   target lsl 1 lor the predicted-taken bit. *)
let btb_miss = -1
let btb_hit ~target ~taken = (target lsl 1) lor Bool.to_int taken
let btb_train btb ~pc ~taken ~target = ignore (Btb.access btb ~pc ~taken ~target : int)

let test_btb_miss_then_hit () =
  let btb = Btb.create ~entries:64 ~assoc:2 in
  Alcotest.(check int) "cold BTB should miss" btb_miss
    (Btb.access btb ~pc:100 ~taken:true ~target:200);
  Alcotest.(check int) "hit: stored target, allocated strongly taken"
    (btb_hit ~target:200 ~taken:true)
    (Btb.access btb ~pc:100 ~taken:true ~target:200)

let test_btb_not_taken_never_allocates () =
  let btb = Btb.create ~entries:64 ~assoc:2 in
  btb_train btb ~pc:100 ~taken:false ~target:200;
  Alcotest.(check int) "not-taken branches must not be stored" btb_miss
    (Btb.probe btb ~pc:100);
  Alcotest.(check int) "empty" 0 (Btb.occupancy btb)

let test_btb_counter_training () =
  let btb = Btb.create ~entries:64 ~assoc:2 in
  btb_train btb ~pc:100 ~taken:true ~target:200;
  (* Two not-taken accesses drive the 2-bit counter below the threshold;
     each answers with the counter as it stood before training. *)
  Alcotest.(check int) "strongly taken before the first" (btb_hit ~target:200 ~taken:true)
    (Btb.access btb ~pc:100 ~taken:false ~target:200);
  Alcotest.(check int) "weakly taken before the second" (btb_hit ~target:200 ~taken:true)
    (Btb.access btb ~pc:100 ~taken:false ~target:200);
  Alcotest.(check int) "entry survives, counter trained down"
    (btb_hit ~target:200 ~taken:false) (Btb.probe btb ~pc:100)

let test_btb_lru_eviction () =
  (* 2-way set: three distinct taken branches mapping to the same set evict
     the least recently used. *)
  let btb = Btb.create ~entries:8 ~assoc:2 in
  (* set index = pc mod 4; pcs 4, 8, 12 share set 0. *)
  btb_train btb ~pc:4 ~taken:true ~target:1;
  btb_train btb ~pc:8 ~taken:true ~target:2;
  btb_train btb ~pc:4 ~taken:true ~target:1;
  (* refresh 4 *)
  btb_train btb ~pc:12 ~taken:true ~target:3;
  (* evicts 8 *)
  Alcotest.(check int) "LRU entry should be evicted" btb_miss (Btb.probe btb ~pc:8);
  Alcotest.(check int) "recently used entry should survive"
    (btb_hit ~target:1 ~taken:true) (Btb.probe btb ~pc:4)

let test_btb_target_update () =
  let btb = Btb.create ~entries:8 ~assoc:2 in
  btb_train btb ~pc:4 ~taken:true ~target:1;
  Alcotest.(check int) "answers the stored target, then trains the new one"
    (btb_hit ~target:1 ~taken:true)
    (Btb.access btb ~pc:4 ~taken:true ~target:9);
  Alcotest.(check int) "hit with the latest target" (btb_hit ~target:9 ~taken:true)
    (Btb.probe btb ~pc:4)

let test_btb_bad_geometry () =
  Alcotest.(check bool) "entries % assoc" true
    (try
       ignore (Btb.create ~entries:10 ~assoc:4);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative target" true
    (try
       btb_train (Btb.create ~entries:8 ~assoc:2) ~pc:4 ~taken:true ~target:(-1);
       false
     with Invalid_argument _ -> true)

(* -- Return_stack ------------------------------------------------------- *)

let test_ras_lifo () =
  let ras = Return_stack.create ~depth:4 in
  Return_stack.push ras 1;
  Return_stack.push ras 2;
  Alcotest.(check int) "pop 2" 2 (Return_stack.pop ras);
  Alcotest.(check int) "pop 1" 1 (Return_stack.pop ras);
  Alcotest.(check int) "empty pops the sentinel" (-1) (Return_stack.pop ras)

let test_ras_overflow_wraps () =
  let ras = Return_stack.create ~depth:2 in
  Return_stack.push ras 1;
  Return_stack.push ras 2;
  Return_stack.push ras 3;
  (* overwrites 1 *)
  Alcotest.(check int) "pop 3" 3 (Return_stack.pop ras);
  Alcotest.(check int) "pop 2" 2 (Return_stack.pop ras);
  Alcotest.(check int) "oldest lost" (-1) (Return_stack.pop ras)

(* -- Alpha_bits ------------------------------------------------------------ *)

let test_alpha_bits_cold_btfnt () =
  let bits = Alpha_bits.create () in
  Alcotest.(check bool) "cold backward predicted taken" true
    (Alpha_bits.access bits ~pc:100 ~taken_target:50 ~taken:true);
  (* pc 101 shares pc 100's line, which the first access filled, but its
     own bit is still unwritten *)
  Alcotest.(check bool) "cold forward predicted not-taken" false
    (Alpha_bits.access bits ~pc:101 ~taken_target:150 ~taken:true)

let test_alpha_bits_history () =
  let bits = Alpha_bits.create () in
  ignore (Alpha_bits.access bits ~pc:100 ~taken_target:50 ~taken:false : bool);
  Alcotest.(check bool) "bit overrides BT/FNT" false
    (Alpha_bits.access bits ~pc:100 ~taken_target:50 ~taken:false)

let test_alpha_bits_eviction_resets () =
  let bits = Alpha_bits.create ~lines:4 ~insns_per_line:8 () in
  ignore (Alpha_bits.access bits ~pc:0 ~taken_target:0 ~taken:false : bool);
  (* pc 32 maps to the same line (4 lines x 8 insns = 32-instruction wrap). *)
  ignore (Alpha_bits.access bits ~pc:32 ~taken_target:0 ~taken:true : bool);
  Alcotest.(check bool) "evicted bit falls back to BT/FNT" true
    (Alpha_bits.access bits ~pc:0 ~taken_target:0 ~taken:false);
  Alcotest.(check bool) "negative pc refused" true
    (try
       ignore (Alpha_bits.access bits ~pc:(-1) ~taken_target:0 ~taken:false : bool);
       false
     with Invalid_argument _ -> true)

(* -- Icache ----------------------------------------------------------------- *)

let test_icache_miss_then_hit () =
  let c = Icache.create ~lines:4 ~insns_per_line:8 () in
  Alcotest.(check int) "cold miss" 1 (Icache.touch_range c ~addr:0 ~size:4);
  Alcotest.(check int) "now hot" 0 (Icache.touch_range c ~addr:4 ~size:4);
  Alcotest.(check int) "misses" 1 (Icache.misses c)

let test_icache_range_spans_lines () =
  let c = Icache.create ~lines:4 ~insns_per_line:8 () in
  (* 20 instructions starting at 4 touch lines 0, 1 and 2. *)
  Alcotest.(check int) "three cold lines" 3 (Icache.touch_range c ~addr:4 ~size:20);
  Alcotest.(check int) "accesses" 3 (Icache.accesses c)

let test_icache_capacity_eviction () =
  let c = Icache.create ~lines:2 ~insns_per_line:8 () in
  ignore (Icache.touch_range c ~addr:0 ~size:1);
  (* line 0 -> set 0 *)
  ignore (Icache.touch_range c ~addr:16 ~size:1);
  (* line 2 -> set 0: evicts line 0 (direct-mapped) *)
  Alcotest.(check int) "line 0 evicted" 1 (Icache.touch_range c ~addr:0 ~size:1)

let test_icache_associativity_helps () =
  let run assoc =
    let c = Icache.create ~lines:4 ~insns_per_line:8 ~assoc () in
    (* Two lines aliasing to the same direct-mapped set, touched
       alternately. *)
    for _ = 1 to 10 do
      ignore (Icache.touch_range c ~addr:0 ~size:1);
      ignore (Icache.touch_range c ~addr:32 ~size:1)
    done;
    Icache.misses c
  in
  let direct = run 1 and two_way = run 2 in
  Alcotest.(check bool)
    (Printf.sprintf "2-way (%d) beats direct (%d) on ping-pong" two_way direct)
    true
    (two_way = 2 && direct = 20)

let test_icache_dense_beats_sparse () =
  (* The alignment argument in miniature: the same 16 hot instructions
     packed contiguously occupy 2 lines; spread across 8 blocks at 16-insn
     strides they occupy 8 lines and no longer fit a 4-line cache. *)
  let dense = Icache.create ~lines:4 ~insns_per_line:8 () in
  let sparse = Icache.create ~lines:4 ~insns_per_line:8 () in
  for _ = 1 to 50 do
    ignore (Icache.touch_range dense ~addr:0 ~size:16);
    for b = 0 to 7 do
      ignore (Icache.touch_range sparse ~addr:(b * 16) ~size:2)
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "dense misses (%d) << sparse misses (%d)" (Icache.misses dense)
       (Icache.misses sparse))
    true
    (Icache.misses dense = 2 && Icache.misses sparse > 100)

(* -- Likely_bits ---------------------------------------------------------- *)

let test_likely_bits () =
  let open Ba_ir in
  let main =
    Proc.make ~name:"main"
      [|
        Block.make ~insns:1
          (Term.Cond { on_true = 1; on_false = 2; behavior = Behavior.Loop 5 });
        Block.make ~insns:1 (Term.Jump 0);
        Block.make ~insns:1 Term.Halt;
      |]
  in
  let prog = Program.make ~name:"likely" ~seed:1 [| main |] in
  let profile = Ba_exec.Engine.profile_program prog in
  let image = Ba_layout.Image.original prog in
  let bits = Likely_bits.build image profile in
  Alcotest.(check int) "one conditional" 1 (Likely_bits.count bits);
  (* Original layout: on_true (the majority outcome) is the fall-through, so
     the branch is likely NOT taken. *)
  let pc = Ba_layout.Linear.branch_pc (Ba_layout.Image.lblock image 0 0) in
  Alcotest.(check bool) "hint not taken" false (Likely_bits.hint bits pc);
  (* Only conditional branches carry a hint: the jump's pc, an address past
     the image and a negative address are all refused. *)
  let refused label pc =
    Alcotest.(check bool) label true
      (try
         ignore (Likely_bits.hint bits pc : bool);
         false
       with Invalid_argument _ -> true)
  in
  refused "jump pc" (Ba_layout.Linear.branch_pc (Ba_layout.Image.lblock image 0 1));
  refused "past the last address" image.Ba_layout.Image.total_size;
  refused "negative pc" (-1);
  (* A layout that flips the sense flips the hint. *)
  let image2 =
    Ba_layout.Image.build ~profile prog [| Ba_layout.Decision.of_order [| 0; 2; 1 |] |]
  in
  let bits2 = Likely_bits.build image2 profile in
  let pc2 = Ba_layout.Linear.branch_pc (Ba_layout.Image.lblock image2 0 0) in
  Alcotest.(check bool) "flipped hint taken" true (Likely_bits.hint bits2 pc2)

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~name:"counter stays in [0,3]" ~count:300 (list bool) (fun updates ->
        let c =
          List.fold_left (fun c taken -> Counter2.update c ~taken) Counter2.initial updates
        in
        (c :> int) >= 0 && (c :> int) <= 3);
    Test.make ~name:"RAS never exceeds depth" ~count:200
      (pair (int_range 1 8) (list small_nat))
      (fun (depth, pushes) ->
        let ras = Return_stack.create ~depth in
        List.iter (Return_stack.push ras) pushes;
        Return_stack.occupancy ras <= depth);
    Test.make ~name:"BTB occupancy bounded by entries" ~count:100
      (list (pair small_nat bool))
      (fun updates ->
        let btb = Btb.create ~entries:16 ~assoc:4 in
        List.iter (fun (pc, taken) -> btb_train btb ~pc ~taken ~target:(pc + 1)) updates;
        Btb.occupancy btb <= 16);
  ]

(* -- Edge cases pinned through Ba_obs counters ------------------------------
   These scenarios re-drive the structures' corner branches (saturation
   rails, circular-stack wraparound, set-conflict eviction, index aliasing)
   and assert the exact event counts the instrumentation records, so both
   the predictor semantics and the metric names/semantics are pinned.  The
   structures keep local books and publish them only on [flush_obs], so
   each scenario flushes inside the registry it reads. *)

let counted f =
  let r = Ba_obs.Registry.create () in
  Ba_obs.Registry.with_registry r f;
  fun name -> Ba_obs.Registry.counter_value r name

let test_obs_counter2_saturation_rails () =
  (* Counter2 is pure; its owners count the saturated updates.  A PHT
     entry starts at 1: two taken accesses climb to 3, the next 8
     saturate high; three not-taken descend to 0, the next 7 saturate
     low. *)
  let read =
    counted (fun () ->
        let pht = Pht.create_direct ~entries:16 in
        for _ = 1 to 10 do
          ignore (Pht.access pht ~pc:5 ~taken:true : bool)
        done;
        for _ = 1 to 10 do
          ignore (Pht.access pht ~pc:5 ~taken:false : bool)
        done;
        Pht.flush_obs pht)
  in
  Alcotest.(check int) "PHT high rail" 8 (read "predict.counter2.sat_hi");
  Alcotest.(check int) "PHT low rail" 7 (read "predict.counter2.sat_lo");
  (* A BTB entry is allocated strongly taken (no update): 4 taken hits all
     saturate high; 5 not-taken hits descend to 0, then 2 saturate low. *)
  let read =
    counted (fun () ->
        let btb = Btb.create ~entries:8 ~assoc:2 in
        btb_train btb ~pc:4 ~taken:true ~target:1;
        for _ = 1 to 4 do
          btb_train btb ~pc:4 ~taken:true ~target:1
        done;
        for _ = 1 to 5 do
          btb_train btb ~pc:4 ~taken:false ~target:1
        done;
        Btb.flush_obs btb)
  in
  Alcotest.(check int) "BTB high rail" 4 (read "predict.counter2.sat_hi");
  Alcotest.(check int) "BTB low rail" 2 (read "predict.counter2.sat_lo")

let test_obs_ras_overflow_underflow () =
  let popped = ref [] in
  let r = Ba_obs.Registry.create () in
  Ba_obs.Registry.with_registry r (fun () ->
      let s = Return_stack.create ~depth:2 in
      Return_stack.push s 10;
      Return_stack.push s 20;
      Return_stack.push s 30;
      (* overflow: wraps, overwriting 10 *)
      for _ = 1 to 3 do
        popped := Return_stack.pop s :: !popped
      done;
      Return_stack.flush_obs s);
  let read = Ba_obs.Registry.counter_value r in
  Alcotest.(check (list int))
    "wraparound pops newest two, then underflows"
    [ 30; 20; -1 ] (List.rev !popped);
  Alcotest.(check int) "pushes" 3 (read "predict.ras.push");
  Alcotest.(check int) "one overflow" 1 (read "predict.ras.overflow");
  Alcotest.(check int) "pops" 3 (read "predict.ras.pop");
  Alcotest.(check int) "one underflow" 1 (read "predict.ras.underflow");
  match Ba_obs.Registry.histogram_snapshot r "predict.ras.depth" with
  | Some h ->
    (* occupancies after each push: 1, 2, 2 *)
    Alcotest.(check int) "depth observations" 3 h.Ba_obs.Registry.total;
    Alcotest.(check int) "depth max is the stack depth" 2 h.Ba_obs.Registry.max_value
  | None -> Alcotest.fail "predict.ras.depth histogram missing"

let test_obs_btb_set_conflict_eviction () =
  let read =
    counted (fun () ->
        let btb = Btb.create ~entries:2 ~assoc:2 in
        (* one 2-way set: fill it, re-touch the first entry so the second
           becomes LRU, then allocate a third taken branch *)
        btb_train btb ~pc:0x10 ~taken:true ~target:1;
        btb_train btb ~pc:0x20 ~taken:true ~target:2;
        btb_train btb ~pc:0x10 ~taken:true ~target:1;
        btb_train btb ~pc:0x30 ~taken:true ~target:3;
        (* probes observe without touching the books *)
        let expect pc hit =
          Alcotest.(check bool)
            (Printf.sprintf "pc %#x %s" pc (if hit then "survives" else "evicted"))
            hit
            (Btb.probe btb ~pc >= 0)
        in
        expect 0x10 true;
        expect 0x20 false;
        expect 0x30 true;
        Btb.flush_obs btb)
  in
  Alcotest.(check int) "one lookup per access" 4 (read "predict.btb.lookup");
  Alcotest.(check int) "the re-touch hits" 1 (read "predict.btb.hit");
  Alcotest.(check int) "misses" 3 (read "predict.btb.miss");
  Alcotest.(check int) "allocations" 3 (read "predict.btb.alloc");
  Alcotest.(check int) "the LRU victim is evicted once" 1 (read "predict.btb.evict")

let test_obs_pht_alias_counter () =
  let read =
    counted (fun () ->
        let pht = Pht.create_direct ~entries:16 in
        (* pc 5 trains the slot; pc 21 = 5 + 16 maps to the same index *)
        ignore (Pht.access pht ~pc:5 ~taken:true : bool);
        ignore (Pht.access pht ~pc:5 ~taken:true : bool);
        ignore (Pht.access pht ~pc:21 ~taken:false : bool);
        ignore (Pht.access pht ~pc:5 ~taken:true : bool);
        (* a read-only query is not a lookup *)
        ignore (Pht.predict pht ~pc:5 : bool);
        Pht.flush_obs pht)
  in
  Alcotest.(check int) "one lookup per access" 4 (read "predict.pht.lookup");
  (* accesses whose answer was right: the second and fourth (counter >= 2
     predicts taken); the cold first access and the not-taken interloper
     were wrong *)
  Alcotest.(check int) "right answers" 2 (read "predict.pht.hit");
  (* a different pc training an owned slot: 21 after 5, then 5 after 21 *)
  Alcotest.(check int) "alias transitions" 2 (read "predict.pht.alias")

(* -- Predictor wall: the one-pass structures vs their reference models ---------
   [Ref_predict] keeps the record-per-way BTB and the two-array PHT with
   their separate lookup and update, and the array-of-sets icache.  Random
   (pc, taken, target) streams, and random fetch ranges for the icache,
   drive each reference model and the production structure side by side:
   every answer, the flushed books and the final contents must be equal.
   Addresses are drawn from a small range so that sets and entries are
   shared and evictions and aliases are frequent. *)

(* Deterministic QCheck stream; override with QCHECK_SEED. *)
let qcheck_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 0x5eed)
  | None -> 0x5eed

let wall_streams = ref 0
let wall_accesses = ref 0

(* The [names] counters a flush publishes, read from a fresh registry. *)
let flushed names flush =
  let r = Ba_obs.Registry.create () in
  Ba_obs.Registry.with_registry r flush;
  List.map (fun n -> (n, Ba_obs.Registry.counter_value r n)) names

let check_books what got want =
  List.iter2
    (fun (n, g) (_, w) ->
      if g <> w then QCheck.Test.fail_reportf "%s: %s is %d, the reference model's %d" what n g w)
    got want

let btb_wall =
  QCheck.Test.make ~name:"BTB access = reference probe + update" ~count:500
    QCheck.(
      triple (int_range 1 4) (int_range 0 3)
        (list_of_size Gen.(0 -- 300) (triple (int_range 0 47) bool (int_range 0 47))))
    (fun (assoc, log_sets, stream) ->
      let entries = assoc lsl log_sets in
      let btb = Btb.create ~entries ~assoc in
      let model = Ref_predict.Btb.create ~entries ~assoc in
      let what = Printf.sprintf "BTB-%d/%d" entries assoc in
      List.iteri
        (fun i (pc, taken, target) ->
          let got = Btb.access btb ~pc ~taken ~target in
          let want = Ref_predict.Btb.probe model ~pc in
          Ref_predict.Btb.update model ~pc ~taken ~target;
          if got <> want then
            QCheck.Test.fail_reportf "%s, access %d (pc %d): answered %d, the reference model %d"
              what i pc got want)
        stream;
      let names =
        [ "predict.btb.lookup"; "predict.btb.hit"; "predict.btb.miss"; "predict.btb.alloc";
          "predict.btb.evict"; "predict.counter2.sat_hi"; "predict.counter2.sat_lo" ]
      in
      check_books what
        (flushed names (fun () -> Btb.flush_obs btb))
        (flushed names (fun () -> Ref_predict.Btb.flush_obs model));
      for pc = 0 to 47 do
        if Btb.probe btb ~pc <> Ref_predict.Btb.probe model ~pc then
          QCheck.Test.fail_reportf "%s: final contents differ at pc %d" what pc
      done;
      incr wall_streams;
      wall_accesses := !wall_accesses + List.length stream;
      Btb.occupancy btb = Ref_predict.Btb.occupancy model)

let pht_wall =
  QCheck.Test.make ~name:"PHT access = reference predict + update" ~count:500
    QCheck.(
      quad bool (int_range 0 6) (int_range 1 8)
        (list_of_size Gen.(0 -- 300) (pair (int_range 0 127) bool)))
    (fun (gshare, log_entries, history_bits, stream) ->
      let entries = 1 lsl log_entries in
      let pht, model, what =
        if gshare then
          ( Pht.create_gshare ~entries ~history_bits,
            Ref_predict.Pht.create_gshare ~entries ~history_bits,
            Printf.sprintf "gshare-%d/%d" entries history_bits )
        else
          ( Pht.create_direct ~entries,
            Ref_predict.Pht.create_direct ~entries,
            Printf.sprintf "PHT-%d" entries )
      in
      List.iteri
        (fun i (pc, taken) ->
          let got = Pht.access pht ~pc ~taken in
          let want = Ref_predict.Pht.predict model ~pc in
          Ref_predict.Pht.update model ~pc ~taken;
          if got <> want then
            QCheck.Test.fail_reportf "%s, access %d (pc %d): answered %b, the reference model %b"
              what i pc got want)
        stream;
      let names =
        [ "predict.pht.lookup"; "predict.pht.hit"; "predict.pht.alias";
          "predict.counter2.sat_hi"; "predict.counter2.sat_lo" ]
      in
      check_books what
        (flushed names (fun () -> Pht.flush_obs pht))
        (flushed names (fun () -> Ref_predict.Pht.flush_obs model));
      (* under the final history, every entry reads the same direction *)
      for pc = 0 to entries - 1 do
        if Pht.predict pht ~pc <> Ref_predict.Pht.predict model ~pc then
          QCheck.Test.fail_reportf "%s: final contents differ at pc %d" what pc
      done;
      incr wall_streams;
      wall_accesses := !wall_accesses + List.length stream;
      true)

let icache_wall =
  QCheck.Test.make ~name:"Icache = reference icache" ~count:300
    QCheck.(
      quad (int_range 1 4) (int_range 0 3) (int_range 1 8)
        (list_of_size Gen.(0 -- 200) (pair (int_range 0 255) (int_range 0 12))))
    (fun (assoc, log_sets, insns_per_line, fetches) ->
      let lines = assoc lsl log_sets in
      let cache = Icache.create ~lines ~insns_per_line ~assoc () in
      let model = Ref_predict.Icache.create ~lines ~insns_per_line ~assoc in
      List.iteri
        (fun i (addr, size) ->
          let got = Icache.touch_range cache ~addr ~size in
          let want = Ref_predict.Icache.touch_range model ~addr ~size in
          if got <> want then
            QCheck.Test.fail_reportf
              "icache %dx%d, %d-way, fetch %d (%d+%d): %d misses, the reference model %d" lines
              insns_per_line assoc i addr size got want)
        fetches;
      incr wall_streams;
      wall_accesses := !wall_accesses + List.length fetches;
      Icache.accesses cache = model.Ref_predict.Icache.accesses
      && Icache.misses cache = model.Ref_predict.Icache.misses)

let test_predictor_wall () =
  wall_streams := 0;
  wall_accesses := 0;
  let rand = Random.State.make [| qcheck_seed |] in
  List.iter (QCheck.Test.check_exn ~rand) [ btb_wall; pht_wall; icache_wall ];
  Printf.printf
    "predictor wall: %d streams, %d accesses, every answer and book equal to the reference \
     models\n%!"
    !wall_streams !wall_accesses

let suites =
  [
    ( "predict.counter2",
      [
        Alcotest.test_case "saturation" `Quick test_counter_saturation;
        Alcotest.test_case "hysteresis" `Quick test_counter_hysteresis;
        Alcotest.test_case "initial" `Quick test_counter_initial_not_taken;
      ] );
    ("predict.static", [ Alcotest.test_case "rules" `Quick test_static_rules ]);
    ( "predict.pht",
      [
        Alcotest.test_case "learns bias" `Quick test_pht_learns_bias;
        Alcotest.test_case "aliasing" `Quick test_pht_aliasing;
        Alcotest.test_case "bad sizes" `Quick test_pht_rejects_bad_sizes;
        Alcotest.test_case "gshare alternation" `Quick test_gshare_learns_alternation;
        Alcotest.test_case "gshare masking" `Quick test_gshare_history_masking;
      ] );
    ( "predict.btb",
      [
        Alcotest.test_case "miss then hit" `Quick test_btb_miss_then_hit;
        Alcotest.test_case "not-taken no alloc" `Quick test_btb_not_taken_never_allocates;
        Alcotest.test_case "counter training" `Quick test_btb_counter_training;
        Alcotest.test_case "LRU eviction" `Quick test_btb_lru_eviction;
        Alcotest.test_case "target update" `Quick test_btb_target_update;
        Alcotest.test_case "bad geometry" `Quick test_btb_bad_geometry;
      ] );
    ( "predict.return_stack",
      [
        Alcotest.test_case "LIFO" `Quick test_ras_lifo;
        Alcotest.test_case "overflow wraps" `Quick test_ras_overflow_wraps;
      ] );
    ( "predict.alpha_bits",
      [
        Alcotest.test_case "cold BT/FNT" `Quick test_alpha_bits_cold_btfnt;
        Alcotest.test_case "history bit" `Quick test_alpha_bits_history;
        Alcotest.test_case "eviction resets" `Quick test_alpha_bits_eviction_resets;
      ] );
    ( "predict.icache",
      [
        Alcotest.test_case "miss then hit" `Quick test_icache_miss_then_hit;
        Alcotest.test_case "range spans lines" `Quick test_icache_range_spans_lines;
        Alcotest.test_case "capacity eviction" `Quick test_icache_capacity_eviction;
        Alcotest.test_case "associativity" `Quick test_icache_associativity_helps;
        Alcotest.test_case "dense beats sparse" `Quick test_icache_dense_beats_sparse;
      ] );
    ("predict.likely_bits", [ Alcotest.test_case "hints" `Quick test_likely_bits ]);
    ( "predict.obs",
      [
        Alcotest.test_case "counter2 saturation rails" `Quick
          test_obs_counter2_saturation_rails;
        Alcotest.test_case "RAS overflow and underflow" `Quick test_obs_ras_overflow_underflow;
        Alcotest.test_case "BTB set-conflict eviction" `Quick
          test_obs_btb_set_conflict_eviction;
        Alcotest.test_case "PHT alias counter" `Quick test_obs_pht_alias_counter;
      ] );
    ("predict.properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
    ( "predict.wall",
      [
        Alcotest.test_case "BTB, PHTs and icache equal their reference models" `Quick
          test_predictor_wall;
      ] );
  ]
