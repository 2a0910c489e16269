type t = Fallthrough | Btfnt | Likely of (int -> bool)

let predict_taken t ~pc ~taken_target =
  match t with
  | Fallthrough -> false
  | Btfnt -> taken_target <= pc
  | Likely hint -> hint pc
