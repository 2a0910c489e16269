(** Nestable stage timers.

    [with_ "align" f] runs [f] under a span named ["align"] nested below
    whatever span is currently open on this domain, accumulating one visit
    and the wall time.  Span {e structure} and visit counts are
    deterministic; the seconds are not, so the JSON sink elides them and
    only the ASCII one ({!Sink.render}) shows them.  A single branch when
    collection is off. *)

val with_ : string -> (unit -> 'a) -> 'a
