open Ba_exec
open Ba_predict

type arch =
  | Static_fallthrough
  | Static_btfnt
  | Static_likely of Likely_bits.t
  | Pht_direct of { entries : int }
  | Pht_gshare of { entries : int; history_bits : int }
  | Btb_arch of { entries : int; assoc : int }

let arch_label = function
  | Static_fallthrough -> "FALLTHROUGH"
  | Static_btfnt -> "BT/FNT"
  | Static_likely _ -> "LIKELY"
  | Pht_direct { entries } -> Printf.sprintf "PHT-%d" entries
  | Pht_gshare { entries; _ } -> Printf.sprintf "gshare-%d" entries
  | Btb_arch { entries; assoc } -> Printf.sprintf "BTB-%d/%d" entries assoc

(* The paper's simulated machine (§6): 4096-entry PHTs (1 KB of 2-bit
   counters), a 12-bit global history for the correlation PHT, a 64-entry
   2-way and a 256-entry 4-way BTB, penalties of 1/4 and a 32-entry return
   stack. *)
let pht_direct = Pht_direct { entries = 4096 }
let gshare = Pht_gshare { entries = 4096; history_bits = 12 }
let btb64 = Btb_arch { entries = 64; assoc = 2 }
let btb256 = Btb_arch { entries = 256; assoc = 4 }

type config = [ `Arch of arch | `Likely ]

let config_label = function `Arch a -> arch_label a | `Likely -> "LIKELY"

let arch_of ~image ~profile = function
  | `Likely -> Static_likely (Likely_bits.build image profile)
  | `Arch a -> a

(* Each cost model is judged on the configuration it prices: the direct
   PHT for PHT and the larger BTB for BTB. *)
let of_model = function
  | Ba_core.Cost_model.Fallthrough -> `Arch Static_fallthrough
  | Ba_core.Cost_model.Btfnt -> `Arch Static_btfnt
  | Ba_core.Cost_model.Likely -> `Likely
  | Ba_core.Cost_model.Pht -> `Arch pht_direct
  | Ba_core.Cost_model.Btb -> `Arch btb256

type penalties = { misfetch : int; mispredict : int }

let penalties = { misfetch = 1; mispredict = 4 }
let return_stack_depth = 32

type counts = {
  mutable misfetches : int;
  mutable mispredicts : int;
  mutable cond : int;
  mutable cond_taken : int;
  mutable cond_correct : int;
  mutable uncond : int;
  mutable calls : int;
  mutable indirect : int;
  mutable rets : int;
  mutable rets_correct : int;
}

type predictor =
  | Rule of Static_rule.t
  | Table of Pht.t
  | Buffer of Btb.t

type t = {
  predictor : predictor;
  ras : Return_stack.t;
  c : counts;
  m_arch_penalty : Ba_obs.Counter.t;  (* sim.bep.arch.<label>.penalty_cycles *)
}

let m_misfetch = Ba_obs.Counter.make ~unit_:"events" "sim.bep.misfetch"
let m_mispredict = Ba_obs.Counter.make ~unit_:"events" "sim.bep.mispredict"
let m_misfetch_cycles = Ba_obs.Counter.make ~unit_:"cycles" "sim.bep.misfetch_cycles"

let m_mispredict_cycles =
  Ba_obs.Counter.make ~unit_:"cycles" "sim.bep.mispredict_cycles"

let m_cond = Ba_obs.Counter.make ~unit_:"branches" "sim.bep.class.cond"
let m_cond_taken = Ba_obs.Counter.make ~unit_:"branches" "sim.bep.class.cond_taken"
let m_cond_correct = Ba_obs.Counter.make ~unit_:"branches" "sim.bep.class.cond_correct"
let m_uncond = Ba_obs.Counter.make ~unit_:"branches" "sim.bep.class.uncond"
let m_call = Ba_obs.Counter.make ~unit_:"branches" "sim.bep.class.call"
let m_indirect = Ba_obs.Counter.make ~unit_:"branches" "sim.bep.class.indirect"
let m_ret = Ba_obs.Counter.make ~unit_:"branches" "sim.bep.class.ret"
let m_ret_correct = Ba_obs.Counter.make ~unit_:"branches" "sim.bep.class.ret_correct"

let zero_counts () =
  {
    misfetches = 0;
    mispredicts = 0;
    cond = 0;
    cond_taken = 0;
    cond_correct = 0;
    uncond = 0;
    calls = 0;
    indirect = 0;
    rets = 0;
    rets_correct = 0;
  }

let create ?(return_stack_depth = return_stack_depth) arch =
  let predictor =
    match arch with
    | Static_fallthrough -> Rule Static_rule.Fallthrough
    | Static_btfnt -> Rule Static_rule.Btfnt
    | Static_likely bits -> Rule (Static_rule.Likely (Likely_bits.hint bits))
    | Pht_direct { entries } -> Table (Pht.create_direct ~entries)
    | Pht_gshare { entries; history_bits } -> Table (Pht.create_gshare ~entries ~history_bits)
    | Btb_arch { entries; assoc } -> Buffer (Btb.create ~entries ~assoc)
  in
  {
    predictor;
    ras = Return_stack.create ~depth:return_stack_depth;
    c = zero_counts ();
    m_arch_penalty =
      Ba_obs.Counter.make ~unit_:"cycles"
        (Printf.sprintf "sim.bep.arch.%s.penalty_cycles" (arch_label arch));
  }

let misfetch t = t.c.misfetches <- t.c.misfetches + 1
let mispredict t = t.c.mispredicts <- t.c.mispredicts + 1

(* Charging for what depends on the simulated outcome is arithmetic on
   [Bool.to_int], not branches: whether a simulated prediction was right is
   as hard for the host's branch predictor to guess as for the simulated
   one, so a branch on it would cost a host misprediction about as often
   as the simulated branch mispredicts.  A BTB answer [p] is -1 on a miss,
   so [p lsr 1] is then [max_int], which equals no target. *)

(* A direction-only prediction: a right one still misfetches when taken. *)
let direction t ~predicted ~taken =
  let right = Bool.to_int (predicted = taken) in
  t.c.cond_correct <- t.c.cond_correct + right;
  t.c.misfetches <- t.c.misfetches + (right land Bool.to_int taken);
  t.c.mispredicts <- t.c.mispredicts + (1 - right)

let on_cond t (e : Event.t) ~taken ~taken_target =
  t.c.cond <- t.c.cond + 1;
  t.c.cond_taken <- t.c.cond_taken + Bool.to_int taken;
  match t.predictor with
  | Rule rule ->
    direction t ~predicted:(Static_rule.predict_taken rule ~pc:e.pc ~taken_target) ~taken
  | Table pht -> direction t ~predicted:(Pht.access pht ~pc:e.pc ~taken) ~taken
  | Buffer btb ->
    (* one int-coded access: -1 misses, else target lsl 1 lor taken-bit;
       right when the direction matches and, if taken, so does the target *)
    let p = Btb.access btb ~pc:e.pc ~taken ~target:e.target in
    (* predicted taken: a hit whose counter bit is set *)
    let predicted = Bool.to_int (p >= 0) land p land 1 = 1 in
    let right =
      Bool.to_int (predicted = taken)
      land (Bool.to_int (not taken) lor Bool.to_int (p lsr 1 = e.target))
    in
    t.c.cond_correct <- t.c.cond_correct + right;
    t.c.mispredicts <- t.c.mispredicts + (1 - right)

let on_always_taken t (e : Event.t) =
  (* Unconditional direct transfers: target known at decode, so the cost is
     a misfetch for the static and PHT architectures; a BTB hit removes even
     that. *)
  match t.predictor with
  | Rule _ | Table _ -> misfetch t
  | Buffer btb ->
    let p = Btb.access btb ~pc:e.pc ~taken:true ~target:e.target in
    t.c.misfetches <- t.c.misfetches + Bool.to_int (p < 0)

let on_indirect t (e : Event.t) =
  match t.predictor with
  | Rule _ | Table _ -> mispredict t
  | Buffer btb ->
    let p = Btb.access btb ~pc:e.pc ~taken:true ~target:e.target in
    t.c.mispredicts <- t.c.mispredicts + Bool.to_int (p lsr 1 <> e.target)

let on_event t (e : Event.t) =
  match e.kind with
  | Event.Cond { taken; taken_target } -> on_cond t e ~taken ~taken_target
  | Event.Uncond ->
    t.c.uncond <- t.c.uncond + 1;
    on_always_taken t e
  | Event.Call ->
    t.c.calls <- t.c.calls + 1;
    on_always_taken t e;
    Return_stack.push t.ras (Event.fallthrough_addr e)
  | Event.Indirect_jump ->
    t.c.indirect <- t.c.indirect + 1;
    on_indirect t e
  | Event.Indirect_call ->
    t.c.indirect <- t.c.indirect + 1;
    on_indirect t e;
    Return_stack.push t.ras (Event.fallthrough_addr e)
  | Event.Ret ->
    t.c.rets <- t.c.rets + 1;
    (* an empty stack pops -1, which no return target equals *)
    let right = Bool.to_int (Return_stack.pop t.ras = e.target) in
    t.c.rets_correct <- t.c.rets_correct + right;
    t.c.mispredicts <- t.c.mispredicts + (1 - right)

let counts t = t.c

let bep t =
  (t.c.misfetches * penalties.misfetch) + (t.c.mispredicts * penalties.mispredict)

(* Every global metric above is a pure function of the final books, so the
   simulation loop never touches the registry: the books are flushed once,
   when the run is over (the runner does this; so must anyone driving
   [on_event] by hand who wants the sim.bep.* counters populated).  The
   flushed values are exactly what per-event increments would have
   produced. *)
let flush_obs t =
  (match t.predictor with
  | Rule _ -> ()
  | Table pht -> Pht.flush_obs pht
  | Buffer btb -> Btb.flush_obs btb);
  Return_stack.flush_obs t.ras;
  let c = t.c in
  Ba_obs.Counter.add m_misfetch c.misfetches;
  Ba_obs.Counter.add m_mispredict c.mispredicts;
  Ba_obs.Counter.add m_misfetch_cycles (c.misfetches * penalties.misfetch);
  Ba_obs.Counter.add m_mispredict_cycles (c.mispredicts * penalties.mispredict);
  Ba_obs.Counter.add t.m_arch_penalty (bep t);
  Ba_obs.Counter.add m_cond c.cond;
  Ba_obs.Counter.add m_cond_taken c.cond_taken;
  Ba_obs.Counter.add m_cond_correct c.cond_correct;
  Ba_obs.Counter.add m_uncond c.uncond;
  Ba_obs.Counter.add m_call c.calls;
  Ba_obs.Counter.add m_indirect c.indirect;
  Ba_obs.Counter.add m_ret c.rets;
  Ba_obs.Counter.add m_ret_correct c.rets_correct

let cond_accuracy t = Ba_util.Stats.ratio t.c.cond_correct t.c.cond

let relative_cpi t ~insns ~orig_insns =
  float_of_int (insns + bep t) /. float_of_int orig_insns
