open Ba_exec
open Ba_predict

type config = {
  lines : int;
  insns_per_line : int;
  return_stack_depth : int;
  issue_width : float;
  misfetch_cycles : float;
  mispredict_cycles : float;
  squash_rate : float;
  icache_lines : int;
  icache_miss_cycles : float;
}

let default_config =
  {
    lines = 256;
    insns_per_line = 8;
    return_stack_depth = Bep.return_stack_depth;
    issue_width = 2.0;
    misfetch_cycles = 1.0;
    mispredict_cycles = 5.0;
    squash_rate = 0.3;
    (* The icache is scaled to the workload suite's footprints: 512
       instructions against code footprints of up to ~800 (vs the real
       2048-instruction 21064 icache against megabyte binaries).  The scaled
       ratio preserves the interesting regime: whole programs do not fit,
       aligned hot paths do. *)
    icache_lines = 64;
    icache_miss_cycles = 8.0;
  }

type t = {
  config : config;
  bits : Alpha_bits.t;
  ras : Return_stack.t;
  icache : Icache.t;
  issue : int array array option;
  mutable issue_cycles : int;
  mutable misfetches : int;
  mutable mispredicts : int;
}

let create ?(config = default_config) ?issue () =
  {
    config;
    bits = Alpha_bits.create ~lines:config.lines ~insns_per_line:config.insns_per_line ();
    ras = Return_stack.create ~depth:config.return_stack_depth;
    icache =
      Icache.create ~lines:config.icache_lines ~insns_per_line:config.insns_per_line ();
    issue;
    issue_cycles = 0;
    misfetches = 0;
    mispredicts = 0;
  }

let on_event t (e : Event.t) =
  match e.kind with
  | Event.Cond { taken; taken_target } ->
    (* [Bool.to_int] sums, not branches on the outcome, as in Bep *)
    let right = Bool.to_int (Alpha_bits.access t.bits ~pc:e.pc ~taken_target ~taken = taken) in
    t.misfetches <- t.misfetches + (right land Bool.to_int taken);
    t.mispredicts <- t.mispredicts + (1 - right)
  | Event.Uncond -> t.misfetches <- t.misfetches + 1
  | Event.Call ->
    t.misfetches <- t.misfetches + 1;
    Return_stack.push t.ras (Event.fallthrough_addr e)
  | Event.Indirect_jump -> t.mispredicts <- t.mispredicts + 1
  | Event.Indirect_call ->
    t.mispredicts <- t.mispredicts + 1;
    Return_stack.push t.ras (Event.fallthrough_addr e)
  | Event.Ret -> t.mispredicts <- t.mispredicts + Bool.to_int (Return_stack.pop t.ras <> e.target)

let on_block t ~addr ~size =
  ignore (Icache.touch_range t.icache ~addr ~size);
  match t.issue with
  | None -> ()
  | Some prefix ->
    (* Inserted jumps report a 1-instruction range starting mid-block; they
       have an empty prefix slot and issue alone. *)
    let c = prefix.(addr) in
    let n = Array.length c in
    t.issue_cycles <-
      t.issue_cycles + if n = 0 then size else c.(if size < n - 1 then size else n - 1)

let cycles t ~insns =
  (* With a concrete listing, base cycles come from the dual-issue pairing
     model; otherwise from the ideal issue width. *)
  (match t.issue with
  | Some _ -> float_of_int t.issue_cycles
  | None -> float_of_int insns /. t.config.issue_width)
  +. (float_of_int t.misfetches *. t.config.misfetch_cycles *. (1.0 -. t.config.squash_rate))
  +. (float_of_int t.mispredicts *. t.config.mispredict_cycles)
  +. (float_of_int (Icache.misses t.icache) *. t.config.icache_miss_cycles)

(* The component structures batch their predict.* metrics; one flush per
   simulation (the runner's job) moves them to the registry. *)
let flush_obs t =
  Alpha_bits.flush_obs t.bits;
  Return_stack.flush_obs t.ras;
  Icache.flush_obs t.icache

let misfetches t = t.misfetches
let mispredicts t = t.mispredicts
