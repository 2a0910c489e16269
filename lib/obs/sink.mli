(** Registry output.

    Three sinks: [Ascii] (human-facing tables and a span tree, everything
    included), [Json] (machine-facing via {!Ba_util.Json}), and [Noop]
    (renders nothing — with no registry installed the whole subsystem
    costs one branch per instrumented operation).

    Determinism: [to_json] elides span wall-times and scheduling-dependent
    metrics (pool steals, pool width), so the document is byte-identical
    whatever [-j] the work ran under.  [render] shows everything, wall
    times included; its output is for eyes, not for diffing. *)

type format = Ascii | Json | Noop

val to_json : Registry.t -> Ba_util.Json.t

val render : Registry.t -> string

val emit : format -> Registry.t -> string
(** [Json] output ends with a newline; [Noop] is [""]. *)
