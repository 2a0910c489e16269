(** FNV-1a 64-bit hashing.

    The repo's one digest primitive: certificate digests
    ([Ba_verify.Certificate]) and cache keys ([Ba_workloads.Profiled]) both
    use it, so a digest printed anywhere can be recomputed from the same
    canonical string with this module. *)

val hash64 : string -> int64
(** The raw FNV-1a 64-bit hash of the string. *)

val digest64 : string -> string
(** [hash64] rendered as 16 lowercase hex characters. *)
