type t =
  | Pht_direct of { entries : int }
  | Pht_gshare of { entries : int; history_bits : int }
  | Two_level_local of { branch_entries : int }
  | Btb of { entries : int; assoc : int }
  | Ras of { depth : int }
  | Icache of { lines : int; insns_per_line : int; assoc : int }
  | Alpha of { lines : int; insns_per_line : int }

let name = function
  | Pht_direct { entries } -> Printf.sprintf "pht-direct-%d" entries
  | Pht_gshare { entries; history_bits } ->
    Printf.sprintf "pht-gshare-%dh%d" entries history_bits
  | Two_level_local { branch_entries } ->
    Printf.sprintf "2level-local-%d" branch_entries
  | Btb { entries; assoc } -> Printf.sprintf "btb-%dx%d" entries assoc
  | Ras { depth } -> Printf.sprintf "ras-%d" depth
  | Icache { lines; insns_per_line; assoc } ->
    if assoc = 1 then Printf.sprintf "icache-%dx%d" lines insns_per_line
    else Printf.sprintf "icache-%dx%da%d" lines insns_per_line assoc
  | Alpha { lines; insns_per_line } ->
    Printf.sprintf "alpha-%dx%d" lines insns_per_line

let default_suite =
  [
    Pht_direct { entries = 256 };
    Pht_gshare { entries = 256; history_bits = 8 };
    Two_level_local { branch_entries = 64 };
    Btb { entries = 64; assoc = 2 };
    Ras { depth = Ba_sim.Bep.return_stack_depth };
    Icache { lines = 64; insns_per_line = 8; assoc = 1 };
    Alpha { lines = 32; insns_per_line = 8 };
  ]

let placement_suite =
  [
    Pht_direct { entries = 256 };
    Two_level_local { branch_entries = 64 };
    Btb { entries = 64; assoc = 2 };
    Icache { lines = 64; insns_per_line = 8; assoc = 1 };
    Alpha { lines = 32; insns_per_line = 8 };
  ]
