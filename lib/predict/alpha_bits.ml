type line = {
  mutable tag : int;  (* -1 = invalid *)
  bits : bool array;  (* history bit per instruction slot *)
  valid : bool array;  (* has this slot's bit been written since the fill? *)
}

type t = {
  lines : line array;
  insns_per_line : int;
  (* local books, flushed to the predict.alpha.* counters once per run *)
  mutable s_cold : int;
  mutable s_refills : int;
}

let create ?(lines = 256) ?(insns_per_line = 8) () =
  if lines <= 0 || lines land (lines - 1) <> 0 then
    invalid_arg "Alpha_bits.create: line count must be a power of two";
  if insns_per_line <= 0 then invalid_arg "Alpha_bits.create: bad line size";
  {
    lines =
      Array.init lines (fun _ ->
          {
            tag = -1;
            bits = Array.make insns_per_line false;
            valid = Array.make insns_per_line false;
          });
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

(* The stored line a line number maps to.  Callers compute the tag and
   slot inline: this runs on every conditional, where returning the three
   as a tuple would allocate. *)
let line_of t ~line_no = t.lines.(line_index ~lines:(Array.length t.lines) ~line_no)

let m_refill = Ba_obs.Counter.make ~unit_:"events" "predict.alpha.refill"
let m_cold = Ba_obs.Counter.make ~unit_:"events" "predict.alpha.cold"

let refill line tag =
  line.tag <- tag;
  Array.fill line.valid 0 (Array.length line.valid) false

let predict t ~pc ~taken_target =
  let tag = line_no_of ~insns_per_line:t.insns_per_line ~pc in
  let line = line_of t ~line_no:tag in
  let slot = slot_of ~insns_per_line:t.insns_per_line ~pc in
  if line.tag = tag && line.valid.(slot) then line.bits.(slot)
  else begin
    t.s_cold <- t.s_cold + 1;
    taken_target <= pc (* static BT/FNT on a cold bit *)
  end

let update t ~pc ~taken =
  let tag = line_no_of ~insns_per_line:t.insns_per_line ~pc in
  let line = line_of t ~line_no:tag in
  let slot = slot_of ~insns_per_line:t.insns_per_line ~pc in
  if line.tag <> tag then begin
    t.s_refills <- t.s_refills + 1;
    refill line tag
  end;
  line.bits.(slot) <- taken;
  line.valid.(slot) <- true

let flush_obs t =
  Ba_obs.Counter.add m_cold t.s_cold;
  Ba_obs.Counter.add m_refill t.s_refills;
  t.s_cold <- 0;
  t.s_refills <- 0
