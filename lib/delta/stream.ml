open Ba_trace

(* Layout-independent step records, extracted from one replay-shaped walk
   of the trace over the program's original image.

   A {e site} is a semantic block, numbered [pbase.(proc) + block] — the
   global position the block has in the identity layout, which is also
   layout-invariant.  One record per executed step carries the site and a
   tag naming what the step consumed ([Plain] steps — jumps, fall-throughs
   — consume nothing); switch/vcall selections and the popped frame of
   every return ride in side arrays, in execution order.  Given any
   candidate layout's geometry, the exact event sequence
   {!Ba_trace.Replay.run} would produce on that layout is a deterministic
   function of these records — that is what {!Eval} exploits. *)

let tag_plain = 0
let tag_cond_false = 1
let tag_cond_true = 2
let tag_switch = 3
let tag_call = 4
let tag_vcall = 5
let tag_ret = 6
let tag_halt = 7

type counts = {
  program : Ba_ir.Program.t;
  pbase : int array;  (** first site of each procedure *)
  n_sites : int;
  site_proc : int array;
  site_block : int array;
  opcode : int array;  (** semantic terminator class per site (Flat codes) *)
  n_steps : int;
  completed : bool;  (** the recorded run halted before its budget *)
  n_exec : int array;  (** per site *)
  n_true : int array;  (** semantic [true] outcomes, per conditional site *)
  n_false : int array;
  n_rets_to : int array;  (** frames pushed at this call site and popped *)
  n_underflow : int;  (** returns executed with an empty frame stack *)
  ret_mispredicts : int;  (** returns the machine's return stack mispredicts *)
}

type records = {
  recs : int array;  (** (site lsl 3) lor tag, per step *)
  choices : int array;  (** switch/vcall selected indices, in order *)
  ret_frames : int array;  (** per return: pushing call site, or -1 *)
  cond_recs : int array;  (** (site lsl 1) lor outcome, conditionals only *)
}

type t = { counts : counts; records : records }

module Grow = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = Array.make 1024 0; len = 0 }

  let push t v =
    if t.len = Array.length t.a then begin
      let a = Array.make (2 * t.len) 0 in
      Array.blit t.a 0 a 0 t.len;
      t.a <- a
    end;
    t.a.(t.len) <- v;
    t.len <- t.len + 1

  let finish t = Array.sub t.a 0 t.len
end

(* Mirrors [Replay.run]'s control flow over the identity layout, where
   global position = site.  Any drift from the replayer here would show up
   as a penalty mismatch in the differential wall.  With [record] off the
   walk pushes no per-step record and allocates nothing per step.

   Return mispredicts are layout-independent: the replayer pushes a call's
   fall-through pc and every return targets exactly that pc, and distinct
   call sites have distinct pcs.  So the machine's return stack, fed call
   site ids instead of pcs, mispredicts the same returns on every layout.
   An underflowing return pops the empty stack, a mispredict. *)
let scan ~record program (tr : Trace.t) =
  let flat = Flat.of_image (Ba_layout.Image.original program) in
  let opcode = flat.Flat.opcode in
  let fa = flat.Flat.a and fb = flat.Flat.b and fc = flat.Flat.c in
  let succ = flat.Flat.succ in
  let pbase = flat.Flat.pbase in
  let n_sites = Array.length opcode in
  let site_proc = Array.make n_sites 0 in
  let site_block = Array.make n_sites 0 in
  let nprocs = Array.length pbase in
  for p = 0 to nprocs - 1 do
    let hi = if p + 1 < nprocs then pbase.(p + 1) else n_sites in
    for s = pbase.(p) to hi - 1 do
      site_proc.(s) <- p;
      site_block.(s) <- s - pbase.(p)
    done
  done;
  let recs = Grow.create () in
  let choices = Grow.create () in
  let ret_frames = Grow.create () in
  let cond_recs = Grow.create () in
  let n_exec = Array.make n_sites 0 in
  let n_true = Array.make n_sites 0 in
  let n_false = Array.make n_sites 0 in
  let n_rets_to = Array.make n_sites 0 in
  let n_underflow = ref 0 in
  let ras = Ba_predict.Return_stack.create ~depth:Ba_sim.Bep.return_stack_depth in
  let ret_mp = ref 0 in
  let push_rec g v = if record then Grow.push g v in
  (* decision cursors, as in Replay.run *)
  let conds = tr.Trace.conds in
  let cond_i = ref 0 in
  let next_outcome () =
    let i = !cond_i in
    if i >= tr.Trace.n_conds then
      failwith "Ba_delta.Stream: trace exhausted (conditional outcomes)";
    cond_i := i + 1;
    (Char.code (Bytes.unsafe_get conds (i lsr 3)) lsr (i land 7)) land 1 = 1
  in
  let choice_bytes = tr.Trace.choices in
  let choices_len = Bytes.length choice_bytes in
  let choice_off = ref 0 in
  let next_choice () =
    let off = ref !choice_off in
    let shift = ref 0 and acc = ref 0 and fin = ref false in
    while not !fin do
      if !off >= choices_len then
        failwith "Ba_delta.Stream: trace exhausted (switch/vcall indices)";
      let byte = Char.code (Bytes.unsafe_get choice_bytes !off) in
      incr off;
      acc := !acc lor ((byte land 0x7F) lsl !shift);
      shift := !shift + 7;
      if byte land 0x80 = 0 then fin := true
    done;
    choice_off := !off;
    !acc
  in
  (* frame stack of (call site, resume site) *)
  let cap = ref 64 in
  let s_site = ref (Array.make !cap 0) in
  let s_res = ref (Array.make !cap 0) in
  let sp = ref 0 in
  let push site resume =
    if !sp = !cap then begin
      let cap' = !cap * 2 in
      let a = Array.make cap' 0 and r = Array.make cap' 0 in
      Array.blit !s_site 0 a 0 !cap;
      Array.blit !s_res 0 r 0 !cap;
      s_site := a;
      s_res := r;
      cap := cap'
    end;
    !s_site.(!sp) <- site;
    !s_res.(!sp) <- resume;
    incr sp;
    Ba_predict.Return_stack.push ras site
  in
  let budget = tr.Trace.steps in
  let steps = ref 0 in
  let g = ref flat.Flat.entry in
  let running = ref true in
  while !running && !steps < budget do
    let gp = !g in
    incr steps;
    n_exec.(gp) <- n_exec.(gp) + 1;
    let op = opcode.(gp) in
    if op = Flat.onone then begin
      push_rec recs ((gp lsl 3) lor tag_plain);
      g := gp + 1
    end
    else if op = Flat.ocond then begin
      let outcome = next_outcome () in
      push_rec recs ((gp lsl 3) lor (if outcome then tag_cond_true else tag_cond_false));
      push_rec cond_recs ((gp lsl 1) lor (if outcome then 1 else 0));
      if outcome then n_true.(gp) <- n_true.(gp) + 1
      else n_false.(gp) <- n_false.(gp) + 1;
      if outcome = (fb.(gp) = 1) then g := fa.(gp)
      else begin
        let j = fc.(gp) in
        if j < 0 then g := gp + 1 else g := j
      end
    end
    else if op = Flat.ojump then begin
      push_rec recs ((gp lsl 3) lor tag_plain);
      g := fa.(gp)
    end
    else if op = Flat.oswitch then begin
      let k = next_choice () in
      push_rec recs ((gp lsl 3) lor tag_switch);
      push_rec choices k;
      g := succ.(fa.(gp) + k)
    end
    else if op = Flat.ocall then begin
      push_rec recs ((gp lsl 3) lor tag_call);
      push gp fc.(gp);
      g := fa.(gp)
    end
    else if op = Flat.ovcall then begin
      let k = next_choice () in
      push_rec recs ((gp lsl 3) lor tag_vcall);
      push_rec choices k;
      push gp fc.(gp);
      g := succ.(fa.(gp) + k)
    end
    else if op = Flat.oret then begin
      push_rec recs ((gp lsl 3) lor tag_ret);
      if !sp = 0 then begin
        push_rec ret_frames (-1);
        incr n_underflow;
        incr ret_mp;
        running := false
      end
      else begin
        decr sp;
        let f = !s_site.(!sp) in
        push_rec ret_frames f;
        n_rets_to.(f) <- n_rets_to.(f) + 1;
        if Ba_predict.Return_stack.pop ras <> f then incr ret_mp;
        g := !s_res.(!sp)
      end
    end
    else begin
      (* ohalt *)
      push_rec recs ((gp lsl 3) lor tag_halt);
      running := false
    end
  done;
  let counts =
    {
      program;
      pbase;
      n_sites;
      site_proc;
      site_block;
      opcode = Array.copy opcode;
      n_steps = !steps;
      completed = tr.Trace.completed;
      n_exec;
      n_true;
      n_false;
      n_rets_to;
      n_underflow = !n_underflow;
      ret_mispredicts = !ret_mp;
    }
  in
  {
    counts;
    records =
      {
        recs = Grow.finish recs;
        choices = Grow.finish choices;
        ret_frames = Grow.finish ret_frames;
        cond_recs = Grow.finish cond_recs;
      };
  }

let walk program tr = (scan ~record:false program tr).counts
let build program tr = scan ~record:true program tr
