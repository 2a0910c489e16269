type t = {
  slots : int array;
  mutable top : int;  (* index of next free slot *)
  mutable count : int;  (* valid entries, <= depth *)
  (* local books, flushed to the predict.ras.* metrics once per run *)
  mutable s_pushes : int;
  mutable s_pops : int;
  mutable s_overflows : int;
  mutable s_underflows : int;
  s_depths : int array;  (* pushes that left the stack at depth d, d <= depth *)
}

let create ~depth =
  if depth <= 0 then invalid_arg "Return_stack.create: depth must be positive";
  { slots = Array.make depth 0; top = 0; count = 0; s_pushes = 0; s_pops = 0;
    s_overflows = 0; s_underflows = 0; s_depths = Array.make (depth + 1) 0 }

let depth t = Array.length t.slots

let m_push = Ba_obs.Counter.make ~unit_:"events" "predict.ras.push"
let m_pop = Ba_obs.Counter.make ~unit_:"events" "predict.ras.pop"
let m_overflow = Ba_obs.Counter.make ~unit_:"events" "predict.ras.overflow"
let m_underflow = Ba_obs.Counter.make ~unit_:"events" "predict.ras.underflow"

let m_depth =
  Ba_obs.Histogram.make ~unit_:"entries"
    ~buckets:[| 1; 2; 4; 8; 16; 32; 64; 128 |]
    "predict.ras.depth"

let push t addr =
  if addr < 0 then invalid_arg "Return_stack.push: negative address";
  let depth = Array.length t.slots in
  t.s_pushes <- t.s_pushes + 1;
  if t.count = depth then t.s_overflows <- t.s_overflows + 1 else t.count <- t.count + 1;
  t.slots.(t.top) <- addr;
  (* wrap by compare: [mod] is a division on every call *)
  t.top <- (if t.top + 1 = depth then 0 else t.top + 1);
  t.s_depths.(t.count) <- t.s_depths.(t.count) + 1

let pop t =
  t.s_pops <- t.s_pops + 1;
  if t.count = 0 then begin
    t.s_underflows <- t.s_underflows + 1;
    -1
  end
  else begin
    t.top <- (if t.top = 0 then Array.length t.slots - 1 else t.top - 1);
    t.count <- t.count - 1;
    t.slots.(t.top)
  end

let occupancy t = t.count

let flush_obs t =
  Ba_obs.Counter.add m_push t.s_pushes;
  Ba_obs.Counter.add m_pop t.s_pops;
  Ba_obs.Counter.add m_overflow t.s_overflows;
  Ba_obs.Counter.add m_underflow t.s_underflows;
  for d = 0 to Array.length t.s_depths - 1 do
    Ba_obs.Histogram.observe_n m_depth d ~n:t.s_depths.(d);
    t.s_depths.(d) <- 0
  done;
  t.s_pushes <- 0;
  t.s_pops <- 0;
  t.s_overflows <- 0;
  t.s_underflows <- 0
