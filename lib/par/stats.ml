type t = {
  label : string;
  jobs : int;
  wall_seconds : float;
  task_labels : string array;
  task_seconds : float array;
}

let make ~label ~jobs ~wall_seconds ~task_labels ~task_seconds =
  if Array.length task_labels <> Array.length task_seconds then
    invalid_arg "Stats.make: one label per task required";
  { label; jobs; wall_seconds; task_labels; task_seconds }

let tasks t = Array.length t.task_seconds
let total_task_seconds t = Array.fold_left ( +. ) 0.0 t.task_seconds

let speedup t =
  if t.wall_seconds <= 0.0 then 0.0 else total_task_seconds t /. t.wall_seconds

let render t =
  let columns =
    Ba_util.Ascii_table.[ column ~align:Left "task"; column "seconds" ]
  in
  let rows =
    Array.to_list
      (Array.map2
         (fun label seconds ->
           [ label; Ba_util.Ascii_table.float_cell ~decimals:3 seconds ])
         t.task_labels t.task_seconds)
  in
  Ba_util.Ascii_table.render ~columns ~rows
  ^ Printf.sprintf "%s: %d tasks on %d jobs: %.3fs wall, %.3fs of work (speedup %.2fx)\n"
      t.label (tasks t) t.jobs t.wall_seconds (total_task_seconds t) (speedup t)

let pp ppf t = Fmt.string ppf (render t)
