open Ba_layout
open Ba_trace
open Ba_predict
open Ba_sim

(* Simulator-exact candidate pricing.

   [Stream.build] runs the replay walk once; after that, pricing a candidate
   layout is a function of its geometry only (block addresses, operand
   values, branch senses).  Per architecture family:

   - {b static rules} (fallthrough / BTFNT / likely): every prediction is a
     pure per-site function of the candidate geometry, so the whole cost is
     a closed form over per-site counts — no replay at all;
   - {b tables} (direct PHT, gshare): misfetch traffic stays closed-form;
     only the conditional direction stream is history-dependent, and that
     substream is replayed against a real predictor instance.  Two fast
     paths keep this scoped: if no executed conditional changed its branch
     pc or sense, the cached base penalty is exact; for the direct-mapped
     PHT a small set of changed sites touches a small set of table entries,
     and a dual-table replay over just those entries corrects the cached
     total;
   - {b BTB}: every event kind reads and trains shared associative state,
     so the exact event stream the replayer would produce on the candidate
     is synthesised from the step records and fed to a real {!Bep.t}.

   The differential wall in [test_delta.ml] holds every path to bit
   equality with [Runner.simulate]. *)

let spec_label : Bep.config -> string = function
  | `Arch Bep.Static_fallthrough -> "fallthrough"
  | `Arch Bep.Static_btfnt -> "btfnt"
  | `Likely | `Arch (Bep.Static_likely _) -> "likely"
  | `Arch (Bep.Pht_direct { entries }) -> Printf.sprintf "pht%d" entries
  | `Arch (Bep.Pht_gshare { entries; history_bits }) ->
    Printf.sprintf "gshare%d/%d" entries history_bits
  | `Arch (Bep.Btb_arch { entries; assoc }) -> Printf.sprintf "btb%d/%d" entries assoc

let spec_of_model = Bep.of_model

type stats = {
  mutable closed_form : int;
  mutable cond_cached : int;
  mutable cond_scoped : int;
  mutable cond_replayed : int;
  mutable machine_runs : int;
  mutable ras_substreams : int;
}

(* Candidate geometry: everything layout-dependent the penalty model
   reads, resolved per site. *)
type geom = {
  flat : Flat.t;
  to_g : int array;  (* site -> candidate global position *)
  bpc : int array;  (* site -> branch pc (addr + insns) *)
}

(* The simulator's penalties, as Runner.simulate charges them;
   entry-scoped direct-PHT replay prices at most [scoped_max] changed
   sites. *)
let penalties = Bep.penalties
let scoped_max = 32

type t = {
  stream : Stream.t;
  profile : Ba_cfg.Profile.t;
  specs : Bep.config array;
  ras_risky : bool;  (* deeper calls than the stack: pops can be wrong *)
  base_geom : geom;
  base_cond : int array;  (* cached cond penalty per table spec, else 0 *)
  stats : stats;
}

let geom_of ~stream:st ~profile decisions =
  let program = st.Stream.program in
  let image = Image.build ~profile program decisions in
  let flat = Flat.of_image image in
  let n = st.Stream.n_sites in
  let to_g = Array.make n 0 in
  let bpc = Array.make n 0 in
  Array.iteri
    (fun p (d : Decision.t) ->
      let pos = Decision.position d in
      let base = st.Stream.pbase.(p) in
      Array.iteri (fun b q -> to_g.(base + b) <- base + q) pos)
    decisions;
  let addr = flat.Flat.addr and insns = flat.Flat.insns in
  for s = 0 to n - 1 do
    let g = to_g.(s) in
    bpc.(s) <- addr.(g) + insns.(g)
  done;
  { flat; to_g; bpc }

let make_geom t decisions = geom_of ~stream:t.stream ~profile:t.profile decisions

(* Misfetch / mispredict counts from everything except conditional-branch
   direction predictions and returns: direct jumps, inserted jumps after a
   falling-through conditional, calls, return-leg jumps, switch and vcall
   targets.  Closed form for the static rules and the tables ([Bep]
   treats them identically here); the BTB never uses this. *)
let noncond_counts t geom =
  let st = t.stream in
  let fl = geom.flat in
  let mf = ref 0 and mp = ref 0 in
  for s = 0 to st.Stream.n_sites - 1 do
    let n = st.Stream.n_exec.(s) in
    if n > 0 then begin
      let g = geom.to_g.(s) in
      let op = fl.Flat.opcode.(g) in
      if op = Flat.ojump then mf := !mf + n
      else if op = Flat.ocond then begin
        if fl.Flat.c.(g) >= 0 then
          (* inserted jump: taken once per fall-through execution *)
          mf :=
            !mf
            + (if fl.Flat.b.(g) = 1 then st.Stream.n_false.(s)
               else st.Stream.n_true.(s))
      end
      else if op = Flat.oswitch then mp := !mp + n
      else if op = Flat.ocall then begin
        mf := !mf + n;
        if fl.Flat.b.(g) >= 0 then mf := !mf + st.Stream.n_rets_to.(s)
      end
      else if op = Flat.ovcall then begin
        mp := !mp + n;
        if fl.Flat.b.(g) >= 0 then mf := !mf + st.Stream.n_rets_to.(s)
      end
    end
  done;
  (!mf, !mp)

(* Return mispredicts.  The replayer pushes the call's fall-through pc and
   resumes exactly there, so while the semantic call depth never exceeds
   the stack depth, every non-underflow pop is correct and every underflow
   pops the empty sentinel: the count is just [n_underflow].  Deeper runs
   can wrap the circular stack, so the call/return substream is replayed
   against a real {!Return_stack.t} under the candidate geometry. *)
let ret_mp_count t geom =
  let st = t.stream in
  if not t.ras_risky then st.Stream.n_underflow
  else begin
    t.stats.ras_substreams <- t.stats.ras_substreams + 1;
    let fl = geom.flat in
    let ras = Return_stack.create ~depth:Bep.return_stack_depth in
    let mp = ref 0 in
    let ri = ref 0 in
    Array.iter
      (fun r ->
        let tag = r land 7 in
        if tag = Stream.tag_call || tag = Stream.tag_vcall then
          Return_stack.push ras (geom.bpc.(r lsr 3) + 1)
        else if tag = Stream.tag_ret then begin
          let f = st.Stream.ret_frames.(!ri) in
          incr ri;
          let target =
            if f < 0 then 0
            else begin
              let gf = geom.to_g.(f) in
              let jpc = fl.Flat.b.(gf) in
              if jpc >= 0 then jpc else fl.Flat.addr.(fl.Flat.c.(gf))
            end
          in
          if Return_stack.pop ras <> target then incr mp
        end)
      st.Stream.recs;
    !mp
  end

(* Conditional penalties under a static rule: the prediction is a pure
   per-site function of the candidate geometry, so each site contributes a
   closed form of its taken / fall-through execution counts. *)
let rule_cond_counts t geom spec =
  let st = t.stream in
  let fl = geom.flat in
  let mf = ref 0 and mp = ref 0 in
  for s = 0 to st.Stream.n_sites - 1 do
    if st.Stream.opcode.(s) = Flat.ocond && st.Stream.n_exec.(s) > 0 then begin
      let g = geom.to_g.(s) in
      let sense = fl.Flat.b.(g) = 1 in
      let n_taken = if sense then st.Stream.n_true.(s) else st.Stream.n_false.(s) in
      let n_fall = st.Stream.n_exec.(s) - n_taken in
      let predict_taken =
        match spec with
        | `Arch Bep.Static_fallthrough -> false
        | `Arch Bep.Static_btfnt -> fl.Flat.addr.(fl.Flat.a.(g)) <= geom.bpc.(s)
        | `Likely ->
          (* = the Likely_bits hint the simulator would build for this
             candidate image *)
          let n_true, n_false =
            Ba_cfg.Profile.cond_counts t.profile st.Stream.site_proc.(s)
              st.Stream.site_block.(s)
          in
          n_true >= n_false = sense
        | _ -> assert false
      in
      if predict_taken then begin
        mf := !mf + n_taken;
        mp := !mp + n_fall
      end
      else mp := !mp + n_taken
    end
  done;
  (!mf, !mp)

(* Full conditional-substream replay against a real predictor. *)
let replay_cond t geom ~access =
  let fl = geom.flat in
  let mfp = penalties.Bep.misfetch and mpp = penalties.Bep.mispredict in
  let pen = ref 0 in
  Array.iter
    (fun cr ->
      let s = cr lsr 1 in
      let outcome = cr land 1 = 1 in
      let taken = outcome = (fl.Flat.b.(geom.to_g.(s)) = 1) in
      let pc = geom.bpc.(s) in
      if access ~pc ~taken = taken then begin
        if taken then pen := !pen + mfp
      end
      else pen := !pen + mpp)
    t.stream.Stream.cond_recs;
  !pen

let full_cond_penalty t geom spec =
  let p =
    match spec with
    | `Arch (Bep.Pht_direct { entries }) -> Pht.create_direct ~entries
    | `Arch (Bep.Pht_gshare { entries; history_bits }) ->
      Pht.create_gshare ~entries ~history_bits
    | _ -> assert false
  in
  replay_cond t geom ~access:(Pht.access p)

(* Executed conditional sites whose branch pc or sense differ from the
   base geometry — the only sites that can perturb table state. *)
let changed_conds t geom =
  let st = t.stream in
  let fl = geom.flat and bfl = t.base_geom.flat in
  let acc = ref [] in
  for s = st.Stream.n_sites - 1 downto 0 do
    if st.Stream.opcode.(s) = Flat.ocond && st.Stream.n_exec.(s) > 0 then begin
      let sense = fl.Flat.b.(geom.to_g.(s)) in
      let bsense = bfl.Flat.b.(t.base_geom.to_g.(s)) in
      if sense <> bsense || geom.bpc.(s) <> t.base_geom.bpc.(s) then
        acc := s :: !acc
    end
  done;
  !acc

(* Direct-mapped PHT, scoped: the changed sites index a small entry set E
   (under both geometries); all other entries see identical access streams
   in base and candidate, so penalty(cand) = cached_base - base(E) +
   cand(E), with both E-restricted replays sharing one pass. *)
let scoped_direct_penalty t geom ~entries changed cached_base =
  let in_e = Array.make entries false in
  List.iter
    (fun s ->
      in_e.(Pht.direct_index ~entries ~pc:t.base_geom.bpc.(s)) <- true;
      in_e.(Pht.direct_index ~entries ~pc:geom.bpc.(s)) <- true)
    changed;
  let base_t = Array.make entries Counter2.initial in
  let cand_t = Array.make entries Counter2.initial in
  let bfl = t.base_geom.flat and fl = geom.flat in
  let mfp = penalties.Bep.misfetch and mpp = penalties.Bep.mispredict in
  let base_pen = ref 0 and cand_pen = ref 0 in
  Array.iter
    (fun cr ->
      let s = cr lsr 1 in
      let outcome = cr land 1 = 1 in
      let bi = Pht.direct_index ~entries ~pc:t.base_geom.bpc.(s) in
      if in_e.(bi) then begin
        let taken = outcome = (bfl.Flat.b.(t.base_geom.to_g.(s)) = 1) in
        let c = base_t.(bi) in
        let predicted = Counter2.predict c in
        base_t.(bi) <- Counter2.update c ~taken;
        if predicted = taken then begin
          if taken then base_pen := !base_pen + mfp
        end
        else base_pen := !base_pen + mpp
      end;
      let ci = Pht.direct_index ~entries ~pc:geom.bpc.(s) in
      if in_e.(ci) then begin
        let taken = outcome = (fl.Flat.b.(geom.to_g.(s)) = 1) in
        let c = cand_t.(ci) in
        let predicted = Counter2.predict c in
        cand_t.(ci) <- Counter2.update c ~taken;
        if predicted = taken then begin
          if taken then cand_pen := !cand_pen + mfp
        end
        else cand_pen := !cand_pen + mpp
      end)
    t.stream.Stream.cond_recs;
  cached_base - !base_pen + !cand_pen

(* A single pc change perturbs gshare's shared history for every later
   access, so only the direct PHT has a scoped path. *)
let table_cond_penalty t geom ix spec =
  match (changed_conds t geom, spec) with
  | [], _ ->
    t.stats.cond_cached <- t.stats.cond_cached + 1;
    t.base_cond.(ix)
  | changed, `Arch (Bep.Pht_direct { entries })
    when List.compare_length_with changed scoped_max <= 0 ->
    t.stats.cond_scoped <- t.stats.cond_scoped + 1;
    scoped_direct_penalty t geom ~entries changed t.base_cond.(ix)
  | _ ->
    t.stats.cond_replayed <- t.stats.cond_replayed + 1;
    full_cond_penalty t geom spec

(* BTB: synthesise the exact event stream the replayer would produce on
   the candidate layout and feed a real [Bep.t]. *)
let machine_run t geom arch =
  t.stats.machine_runs <- t.stats.machine_runs + 1;
  let sim = Bep.create arch in
  let st = t.stream and fl = geom.flat in
  let scratch = { Ba_exec.Event.pc = 0; target = 0; kind = Ba_exec.Event.Uncond } in
  let cond_payload = { Ba_exec.Event.pc = 0; target = 0;
                       kind = Ba_exec.Event.Cond { taken = false; taken_target = 0 } } in
  let emit pc target kind =
    scratch.Ba_exec.Event.pc <- pc;
    scratch.Ba_exec.Event.target <- target;
    scratch.Ba_exec.Event.kind <- kind;
    Bep.on_event sim scratch
  in
  let emit_cond pc target ~taken ~taken_target =
    (match cond_payload.Ba_exec.Event.kind with
    | Ba_exec.Event.Cond c ->
      c.taken <- taken;
      c.taken_target <- taken_target
    | _ -> assert false);
    cond_payload.Ba_exec.Event.pc <- pc;
    cond_payload.Ba_exec.Event.target <- target;
    Bep.on_event sim cond_payload
  in
  let ci = ref 0 and ri = ref 0 in
  Array.iter
    (fun r ->
      let s = r lsr 3 in
      let tag = r land 7 in
      let g = geom.to_g.(s) in
      let pc = geom.bpc.(s) in
      if tag = Stream.tag_plain then begin
        if fl.Flat.opcode.(g) = Flat.ojump then
          emit pc fl.Flat.addr.(fl.Flat.a.(g)) Ba_exec.Event.Uncond
      end
      else if tag = Stream.tag_cond_true || tag = Stream.tag_cond_false then begin
        let outcome = tag = Stream.tag_cond_true in
        let taken = outcome = (fl.Flat.b.(g) = 1) in
        let tt = fl.Flat.addr.(fl.Flat.a.(g)) in
        if taken then emit_cond pc tt ~taken:true ~taken_target:tt
        else begin
          emit_cond pc (pc + 1) ~taken:false ~taken_target:tt;
          let j = fl.Flat.c.(g) in
          if j >= 0 then emit (pc + 1) fl.Flat.addr.(j) Ba_exec.Event.Uncond
        end
      end
      else if tag = Stream.tag_switch then begin
        let k = st.Stream.choices.(!ci) in
        incr ci;
        emit pc fl.Flat.addr.(fl.Flat.succ.(fl.Flat.a.(g) + k))
          Ba_exec.Event.Indirect_jump
      end
      else if tag = Stream.tag_call then
        emit pc fl.Flat.addr.(fl.Flat.a.(g)) Ba_exec.Event.Call
      else if tag = Stream.tag_vcall then begin
        let k = st.Stream.choices.(!ci) in
        incr ci;
        emit pc fl.Flat.addr.(fl.Flat.succ.(fl.Flat.a.(g) + k))
          Ba_exec.Event.Indirect_call
      end
      else if tag = Stream.tag_ret then begin
        let f = st.Stream.ret_frames.(!ri) in
        incr ri;
        if f < 0 then emit pc 0 Ba_exec.Event.Ret
        else begin
          let gf = geom.to_g.(f) in
          let jpc = fl.Flat.b.(gf) in
          let resume = fl.Flat.addr.(fl.Flat.c.(gf)) in
          if jpc < 0 then emit pc resume Ba_exec.Event.Ret
          else begin
            emit pc jpc Ba_exec.Event.Ret;
            emit jpc resume Ba_exec.Event.Uncond
          end
        end
      end)
    st.Stream.recs;
  Bep.bep sim

let cost_spec t geom ~noncond ~ret_mp ix spec =
  match spec with
  | `Arch (Bep.Btb_arch _ as arch) -> machine_run t geom arch
  | `Arch (Bep.Static_fallthrough | Bep.Static_btfnt) | `Likely ->
    t.stats.closed_form <- t.stats.closed_form + 1;
    let mf0, mp0 = Lazy.force noncond in
    let mf1, mp1 = rule_cond_counts t geom spec in
    ((mf0 + mf1) * penalties.Bep.misfetch)
    + ((mp0 + mp1 + Lazy.force ret_mp) * penalties.Bep.mispredict)
  | `Arch (Bep.Pht_direct _ | Bep.Pht_gshare _) ->
    let mf0, mp0 = Lazy.force noncond in
    (mf0 * penalties.Bep.misfetch)
    + ((mp0 + Lazy.force ret_mp) * penalties.Bep.mispredict)
    + table_cond_penalty t geom ix spec
  | `Arch (Bep.Static_likely _) -> assert false (* refused by [create] *)

let create ~specs profile trace base =
  Array.iter
    (function
      | `Arch (Bep.Static_likely _) ->
        invalid_arg
          "Ba_delta.Eval.create: fixed LIKELY hint bits cannot follow a \
           candidate's senses; price `Likely"
      | _ -> ())
    specs;
  let program = Ba_cfg.Profile.program profile in
  let stream = Stream.build program trace in
  let stats =
    {
      closed_form = 0;
      cond_cached = 0;
      cond_scoped = 0;
      cond_replayed = 0;
      machine_runs = 0;
      ras_substreams = 0;
    }
  in
  let base_geom = geom_of ~stream ~profile base in
  let t =
    {
      stream;
      profile;
      specs = Array.copy specs;
      ras_risky = stream.Stream.max_depth > Bep.return_stack_depth;
      base_geom;
      base_cond = Array.make (Array.length specs) 0;
      stats;
    }
  in
  Array.iteri
    (fun ix spec ->
      match spec with
      | `Arch (Bep.Pht_direct _ | Bep.Pht_gshare _) ->
        t.base_cond.(ix) <- full_cond_penalty t base_geom spec
      | _ -> ())
    t.specs;
  t

let stats t = t.stats

let cost t decisions =
  let geom = make_geom t decisions in
  let noncond = lazy (noncond_counts t geom) in
  let ret_mp = lazy (ret_mp_count t geom) in
  Array.mapi (cost_spec t geom ~noncond ~ret_mp) t.specs

let cost_arch t ix decisions =
  if ix < 0 || ix >= Array.length t.specs then
    invalid_arg "Ba_delta.Eval.cost_arch: spec index out of range";
  let geom = make_geom t decisions in
  let noncond = lazy (noncond_counts t geom) in
  let ret_mp = lazy (ret_mp_count t geom) in
  cost_spec t geom ~noncond ~ret_mp ix t.specs.(ix)
