(* Shared scaffolding for the whole-suite test walls.

   Every wall (bound soundness, conflict agreement, delta differential,
   exttsp differential) sweeps the same space — the 24 built-in
   workloads, the five algorithm families each under the cost model its
   study uses, and the harness's seven simulated architectures — at the
   standard 20k-step test budget.  The sweep lives here once; the walls
   keep only their per-cell assertions.

   This is a (wrapped false) library, not a module of the main test
   executable, so the standalone gates (lint_all, verify_all) consume the
   same canonical [algos] list instead of keeping their own copies. *)

let wall_steps = 20_000

let workload name =
  match Ba_workloads.Spec.by_name name with
  | Some w -> w
  | None -> Alcotest.failf "unknown workload %s" name

(* The harness's seven simulated architectures, likely bits built from the
   image under test as the harness does. *)
let archs_for image profile =
  [
    Ba_sim.Bep.Static_fallthrough;
    Ba_sim.Bep.Static_btfnt;
    Ba_sim.Bep.Static_likely (Ba_predict.Likely_bits.build image profile);
    Ba_sim.Bep.Pht_direct { entries = 4096 };
    Ba_sim.Bep.Pht_gshare { entries = 4096; history_bits = 12 };
    Ba_sim.Bep.Btb_arch { entries = 64; assoc = 2 };
    Ba_sim.Bep.Btb_arch { entries = 256; assoc = 4 };
  ]

(* The canonical algorithm list every wall and standalone gate sweeps.
   Adding a constructor to Ba_core.Align.algo means adding it here (and
   scripts/check_algo_walls.sh insists every constructor shows up in some
   test wall). *)
let algos =
  [
    Ba_core.Align.Original;
    Ba_core.Align.Greedy;
    Ba_core.Align.Cost;
    Ba_core.Align.Tryn 15;
    Ba_core.Align.ExtTsp;
  ]

(* The cost model each algorithm's study runs under.  Greedy and ExtTsp
   are architecture-oblivious; the arch only labels their cells. *)
let arch_for = function
  | Ba_core.Align.Original | Ba_core.Align.Greedy | Ba_core.Align.ExtTsp ->
    Ba_core.Cost_model.Btfnt
  | Ba_core.Align.Cost -> Ba_core.Cost_model.Pht
  | Ba_core.Align.Tryn _ -> Ba_core.Cost_model.Btb

let wall_cells = List.map (fun a -> (a, arch_for a)) algos

(* Each cell's layout and image, through the same Ba_delta.Algo calls the
   command line and the server make. *)
let decisions_for ~profile algo ~arch =
  Ba_delta.Algo.decisions (Ba_delta.Algo.Core algo) ~arch profile

let image_for ~profile algo ~arch =
  Ba_delta.Algo.image (Ba_delta.Algo.Core algo) ~arch profile

(* Every built-in workload's memoized traced run. *)
let iter_traced ?(max_steps = wall_steps) f =
  List.iter
    (fun (w : Ba_workloads.Spec.t) ->
      let program, profile, trace =
        Ba_workloads.Profiled.get_traced ~max_steps w
      in
      f w program profile trace)
    Ba_workloads.Spec.all

(* The full workload x algorithm wall: [f] gets each cell's aligned
   image alongside the traced run it came from. *)
let iter_wall ?max_steps ?(cells = wall_cells) f =
  iter_traced ?max_steps (fun w program profile trace ->
      List.iter
        (fun (algo, arch) ->
          f ~w ~algo ~arch ~program ~profile ~trace
            (image_for ~profile algo ~arch))
        cells)
