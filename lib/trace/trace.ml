type t = {
  steps : int;
  completed : bool;
  n_conds : int;
  conds : bytes;
  n_choices : int;
  choices : bytes;
}

let byte_size t = Bytes.length t.conds + Bytes.length t.choices

let equal a b =
  a.steps = b.steps && a.completed = b.completed && a.n_conds = b.n_conds
  && a.n_choices = b.n_choices
  && Bytes.equal a.conds b.conds
  && Bytes.equal a.choices b.choices

let cond t i =
  if i < 0 || i >= t.n_conds then invalid_arg "Trace.cond: index out of range";
  (Char.code (Bytes.get t.conds (i lsr 3)) lsr (i land 7)) land 1 = 1

(* -- LEB128 varints -------------------------------------------------------- *)

(* Unsigned LEB128: seven payload bits per byte, low group first, the high
   bit set on every byte but the last. *)
let buf_varint buf n =
  if n < 0 then invalid_arg "Trace: negative varint";
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7F)));
      go (n lsr 7)
    end
  in
  go n

(* Decode one varint of [s] at [!pos], advancing [pos].  A non-negative int
   has 62 value bits: nine bytes, the ninth carrying at most six. *)
let read_varint s pos =
  let rec go shift acc =
    if !pos >= String.length s then failwith "Trace.load: truncated varint";
    let b = Char.code s.[!pos] in
    incr pos;
    let payload = b land 0x7F in
    if shift > 56 || (shift = 56 && payload > 0x3F) then
      failwith "Trace.load: varint overflows an int";
    let acc = acc lor (payload lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

module Builder = struct
  type t = {
    conds : Buffer.t;
    mutable bit_acc : int;
    mutable bit_n : int;
    mutable n_conds : int;
    choices : Buffer.t;
    mutable n_choices : int;
  }

  let create () =
    {
      conds = Buffer.create 4096;
      bit_acc = 0;
      bit_n = 0;
      n_conds = 0;
      choices = Buffer.create 1024;
      n_choices = 0;
    }

  let add_outcome b v =
    if v then b.bit_acc <- b.bit_acc lor (1 lsl b.bit_n);
    b.bit_n <- b.bit_n + 1;
    b.n_conds <- b.n_conds + 1;
    if b.bit_n = 8 then begin
      Buffer.add_char b.conds (Char.chr b.bit_acc);
      b.bit_acc <- 0;
      b.bit_n <- 0
    end

  let add_choice b i =
    buf_varint b.choices i;
    b.n_choices <- b.n_choices + 1

  let finish b ~steps ~completed =
    if b.bit_n > 0 then begin
      Buffer.add_char b.conds (Char.chr b.bit_acc);
      b.bit_acc <- 0;
      b.bit_n <- 0
    end;
    {
      steps;
      completed;
      n_conds = b.n_conds;
      conds = Buffer.to_bytes b.conds;
      n_choices = b.n_choices;
      choices = Buffer.to_bytes b.choices;
    }
end

(* -- disk format ----------------------------------------------------------- *)

let magic = "BAST1\n"

type file = { seed : int; max_steps : int; trace : t }

(* Seeds may be any int; zigzag them into the nonnegative range the varint
   coder accepts. *)
let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))
let unzigzag n = (n lsr 1) lxor (- (n land 1))

(* Write to a fresh file beside [path] and rename it into place, so an
   interrupted save leaves whatever [path] held before, never a prefix. *)
let save ~path ~seed ~max_steps t =
  let b = Buffer.create (byte_size t + 64) in
  let v = buf_varint b in
  Buffer.add_string b magic;
  v (zigzag seed);
  v max_steps;
  v t.steps;
  Buffer.add_char b (if t.completed then '\001' else '\000');
  v t.n_conds;
  v (Bytes.length t.conds);
  Buffer.add_bytes b t.conds;
  v t.n_choices;
  v (Bytes.length t.choices);
  Buffer.add_bytes b t.choices;
  (* A fresh name, created exclusively with the permissions [open_out]
     would give [path] itself. *)
  let rnd = Random.State.make_self_init () in
  let rec create () =
    let tmp = Printf.sprintf "%s.%08x.tmp" path (Random.State.bits rnd) in
    let flags = [ Open_wronly; Open_creat; Open_excl; Open_binary ] in
    match open_out_gen flags 0o666 tmp with
    | oc -> (tmp, oc)
    | exception Sys_error _ when Sys.file_exists tmp -> create ()
  in
  let tmp, oc = create () in
  match
    Buffer.output_buffer oc b;
    close_out oc
  with
  | () -> Sys.rename tmp path
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let load ~path =
  let s = In_channel.with_open_bin path In_channel.input_all in
  let fail what = failwith ("Trace.load: " ^ what) in
  let pos = ref 0 in
  let take n what =
    if n > String.length s - !pos then fail ("truncated " ^ what);
    let r = String.sub s !pos n in
    pos := !pos + n;
    r
  in
  if take (String.length magic) "header" <> magic then fail "bad magic";
  let v () = read_varint s pos in
  let seed = unzigzag (v ()) in
  let max_steps = v () in
  let steps = v () in
  let completed =
    match take 1 "file" with
    | "\000" -> false
    | "\001" -> true
    | _ -> fail "bad completed flag"
  in
  let n_conds = v () in
  let conds = take (v ()) "cond stream" in
  if String.length conds <> (n_conds + 7) / 8 then
    fail "cond stream length does not match its outcome count";
  let n_choices = v () in
  let choices = take (v ()) "choice stream" in
  let cpos = ref 0 and found = ref 0 in
  while !cpos < String.length choices do
    ignore (read_varint choices cpos : int);
    incr found
  done;
  if !found <> n_choices then
    fail "choice stream length does not match its index count";
  if !pos <> String.length s then fail "trailing bytes after the choice stream";
  {
    seed;
    max_steps;
    trace =
      {
        steps;
        completed;
        n_conds;
        conds = Bytes.of_string conds;
        n_choices;
        choices = Bytes.of_string choices;
      };
  }
