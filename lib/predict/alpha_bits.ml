type t = {
  tags : int array;  (* line number held by each stored line; -1 = invalid *)
  (* one history-bit slot per instruction, line-major ([line *
     insns_per_line + slot]): [unwritten] since the line's fill, else the
     direction last recorded there *)
  bits : Bytes.t;
  insns_per_line : int;
  (* local books, flushed to the predict.alpha.* counters once per run *)
  mutable s_cold : int;
  mutable s_refills : int;
}

let unwritten = '\000'
let bit_not_taken = '\001'
let bit_taken = '\002'

let create ?(lines = 256) ?(insns_per_line = 8) () =
  if lines <= 0 || lines land (lines - 1) <> 0 then
    invalid_arg "Alpha_bits.create: line count must be a power of two";
  if insns_per_line <= 0 then invalid_arg "Alpha_bits.create: bad line size";
  {
    tags = Array.make lines (-1);
    bits = Bytes.make (lines * insns_per_line) unwritten;
    insns_per_line;
    s_cold = 0;
    s_refills = 0;
  }

(* Pure indexing, shared with static conflict analysis: which predictor
   line an address lives in (its tag), which stored line that maps to, and
   its history-bit slot within the line. *)
let line_no_of ~insns_per_line ~pc = pc / insns_per_line
let slot_of ~insns_per_line ~pc = pc mod insns_per_line
let line_index ~lines ~line_no = line_no land (lines - 1)

let m_refill = Ba_obs.Counter.make ~unit_:"events" "predict.alpha.refill"
let m_cold = Ba_obs.Counter.make ~unit_:"events" "predict.alpha.cold"

let access t ~pc ~taken_target ~taken =
  (* a negative pc has a negative slot, which would land in the previous
     line's bits *)
  if pc < 0 then invalid_arg "Alpha_bits.access: negative pc";
  let ipl = t.insns_per_line in
  let tag = line_no_of ~insns_per_line:ipl ~pc in
  let line = line_index ~lines:(Array.length t.tags) ~line_no:tag in
  let slot = (line * ipl) + slot_of ~insns_per_line:ipl ~pc in
  let resident = t.tags.(line) = tag in
  let bit = if resident then Bytes.get t.bits slot else unwritten in
  let predicted =
    if bit <> unwritten then bit = bit_taken
    else begin
      t.s_cold <- t.s_cold + 1;
      taken_target <= pc (* static BT/FNT on a cold bit *)
    end
  in
  if not resident then begin
    t.s_refills <- t.s_refills + 1;
    t.tags.(line) <- tag;
    Bytes.fill t.bits (line * ipl) ipl unwritten
  end;
  (* the recorded bit is arithmetic on [taken], not a branch on it *)
  Bytes.set t.bits slot (Char.unsafe_chr (Char.code bit_not_taken + Bool.to_int taken));
  predicted

let flush_obs t =
  Ba_obs.Counter.add m_cold t.s_cold;
  Ba_obs.Counter.add m_refill t.s_refills;
  t.s_cold <- 0;
  t.s_refills <- 0
