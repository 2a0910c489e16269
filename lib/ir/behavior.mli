(** Conditional-branch outcome models.

    Every conditional branch site in a program carries a behaviour, a small
    stochastic process that produces the branch's semantic outcome stream
    ([true] = the source-level condition held).  Outcomes are a property of
    the *program*, not of the code layout: reordering basic blocks or
    inverting a branch's sense changes which outcome is architecturally
    "taken", but never the outcome stream itself.  This is what makes
    original and aligned layouts directly comparable in the simulator.

    Behaviours are deterministic given the per-site seed, so the whole
    evaluation is reproducible. *)

type t =
  | Always of bool  (** the condition always evaluates the same way *)
  | Bias of float
      (** i.i.d. Bernoulli: the condition holds with the given probability *)
  | Loop of int
      (** a counted loop's continuation test with trip count [n]: the
          condition holds [n - 1] consecutive times, then fails once, then
          repeats (each failure is one entry into the loop) *)
  | Pattern of bool array
      (** a deterministic repeating outcome pattern; captures branches that a
          local-history or global-history predictor can learn perfectly *)
  | Correlated of { bits : int; table : bool array; noise : float }
      (** the outcome is a function of the last [bits] semantic outcomes of
          the whole program ([table] has [2^bits] entries, indexed by the
          global outcome history), flipped with probability [noise]; captures
          the inter-branch correlation that gshare-style predictors exploit *)
  | Markov of { p_stay_true : float; p_stay_false : float; init : bool }
      (** a two-state Markov chain: runs of identical outcomes, as produced
          by data-dependent branches scanning clustered data *)

val validate : t -> (unit, string) result
(** Check structural well-formedness (probabilities in range, trip count
    positive, table sized [2^bits], etc.). *)

val mean_rate : t -> float
(** The long-run probability that the condition holds (for a [Markov]
    chain that can leave neither state, its [init] state's); used by
    tests. *)

type state
(** Mutable per-site evaluation state (position in a pattern, loop counter,
    RNG stream, ...). *)

val init_state : t -> Ba_util.Rng.t -> state
(** [init_state b rng] creates the state for one site; [rng] must be a
    dedicated (split) generator for this site. *)

val next : t -> state -> history:int -> bool
(** [next b st ~history] draws the site's next outcome.  [history] is the
    global semantic-outcome history register (most recent outcome in bit 0),
    consulted only by [Correlated]. *)

val pp : Format.formatter -> t -> unit
