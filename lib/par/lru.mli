(** Sharded compute-once LRU cache with byte budgets.

    The serving path memoizes recorded traces and profiles keyed by FNV-1a-64
    digests; this cache gives that memoization a bound.  Keys are hashed to
    one of N shards, each with its own lock, so lookups on different shards
    never contend.  Within a shard the cache is compute-once: a miss installs
    a pending cell before running [compute] outside the lock, and concurrent
    callers of the same key block on the cell and share the single result —
    the record-once contract {!Ba_workloads.Profiled} relies on.

    Counting contract (what the tests pin): the first caller of a key is one
    miss; every concurrent or later caller is one hit, including callers that
    blocked on the pending cell.  A failed compute is not cached — waiters
    retry (and may turn into the new computer) without being re-counted.

    Per cache, three volatile {!Ba_obs} counters are registered:
    [lru.<name>.hit], [lru.<name>.miss], [lru.<name>.evict].  They are
    volatile because hit/miss splits depend on scheduling once eviction is
    active, and the metrics JSON document must stay deterministic. *)

type 'a t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;  (** ready (cached) entries across all shards *)
  bytes : int;  (** bytes charged across all shards *)
  budget_bytes : int;  (** configured total budget; [<= 0] means unbounded *)
}

val create :
  ?shards:int -> ?budget_bytes:int -> name:string -> size_of:('a -> int) -> unit -> 'a t
(** [create ~name ~size_of ()] makes an empty cache.  [shards] defaults to 8;
    [budget_bytes] is the total budget split evenly across shards, and values
    [<= 0] (the default) mean unbounded.  [size_of] prices a value when it is
    inserted; the price is remembered, so mutating a cached value's size
    afterwards does not corrupt the ledger. *)

val get : 'a t -> key:string -> (unit -> 'a) -> 'a
(** [get t ~key compute] returns the cached value for [key], computing (and
    caching) it on a miss.  Concurrent callers of the same key block and
    share one compute.  If [compute] raises, the exception propagates to the
    computing caller, nothing is cached, and blocked waiters retry. *)

val mem : 'a t -> string -> bool
(** [mem t key] is [true] iff a ready value for [key] is currently cached
    (pending computes do not count). *)

val set_budget : 'a t -> bytes:int -> unit
(** Replace the total byte budget and evict immediately to fit. *)

val stats : 'a t -> stats

val clear : 'a t -> unit
(** Drop every ready entry and reset the hit/miss/eviction tallies.  In-flight
    computes are untouched: their pending cells survive and settle normally. *)
