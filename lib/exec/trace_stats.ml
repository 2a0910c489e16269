type t = {
  (* executions per conditional-branch pc, indexed by pc and grown on
     demand: pcs are dense layout addresses, so a flat array beats a
     hashtable on the per-event path *)
  mutable cond_by_pc : int array;
  mutable cond_sites : int;  (* pcs with a nonzero slot *)
  mutable cond : int;
  mutable cond_taken : int;
  mutable uncond : int;
  mutable ijump : int;
  mutable call : int;
  mutable icall : int;
  mutable ret : int;
}

let create () =
  {
    cond_by_pc = Array.make 1024 0;
    cond_sites = 0;
    cond = 0;
    cond_taken = 0;
    uncond = 0;
    ijump = 0;
    call = 0;
    icall = 0;
    ret = 0;
  }

let bump_cond_pc t pc =
  (* both bounds before the unchecked access: a negative pc would bump the
     word in front of the array *)
  if pc < 0 then invalid_arg "Trace_stats.on_event: negative pc";
  if pc >= Array.length t.cond_by_pc then begin
    let grown = Array.make (max (pc + 1) (2 * Array.length t.cond_by_pc)) 0 in
    Array.blit t.cond_by_pc 0 grown 0 (Array.length t.cond_by_pc);
    t.cond_by_pc <- grown
  end;
  let c = Array.unsafe_get t.cond_by_pc pc in
  if c = 0 then t.cond_sites <- t.cond_sites + 1;
  Array.unsafe_set t.cond_by_pc pc (c + 1)

let on_event t (e : Event.t) =
  match e.kind with
  | Event.Cond { taken; _ } ->
    t.cond <- t.cond + 1;
    t.cond_taken <- t.cond_taken + Bool.to_int taken;
    bump_cond_pc t e.pc
  | Event.Uncond -> t.uncond <- t.uncond + 1
  | Event.Indirect_jump -> t.ijump <- t.ijump + 1
  | Event.Call -> t.call <- t.call + 1
  | Event.Indirect_call -> t.icall <- t.icall + 1
  | Event.Ret -> t.ret <- t.ret + 1

type summary = {
  insns : int;
  pct_breaks : float;
  q50 : int;
  q90 : int;
  q99 : int;
  q100 : int;
  static_cond_sites : int;
  pct_taken : float;
  pct_cbr : float;
  pct_ij : float;
  pct_br : float;
  pct_call : float;
  pct_ret : float;
}

let summarize t ~program ~insns =
  let breaks = t.cond + t.uncond + t.ijump + t.call + t.icall + t.ret in
  let weights = ref [] in
  Array.iteri
    (fun pc c -> if c > 0 then weights := (pc, c) :: !weights)
    t.cond_by_pc;
  let weights = !weights in
  let q fraction = Ba_util.Stats.quantile_sites ~weights ~fraction in
  let ij = t.ijump + t.icall in
  {
    insns;
    pct_breaks = Ba_util.Stats.pct breaks insns;
    q50 = q 0.5;
    q90 = q 0.9;
    q99 = q 0.99;
    q100 = t.cond_sites;
    static_cond_sites = List.length (Ba_ir.Program.conditional_sites program);
    pct_taken = Ba_util.Stats.pct t.cond_taken t.cond;
    pct_cbr = Ba_util.Stats.pct t.cond breaks;
    pct_ij = Ba_util.Stats.pct ij breaks;
    pct_br = Ba_util.Stats.pct t.uncond breaks;
    pct_call = Ba_util.Stats.pct t.call breaks;
    pct_ret = Ba_util.Stats.pct t.ret breaks;
  }

let pct_cond_fallthrough t = Ba_util.Stats.pct (t.cond - t.cond_taken) t.cond
