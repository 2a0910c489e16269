open Ba_predict

type occupant = {
  o_key : int;
  o_weight : int;
  o_bias : bool option;
  o_site : (Ba_ir.Term.proc_id * Ba_ir.Term.block_id) option;
}

type conflict = {
  index : int;
  occupants : occupant list;
  excess_weight : int;
  opposing : bool;
  opposing_weight : int;
}

type map_report = {
  capacity : int;
  assoc : int;
  items : int;
  total_weight : int;
  used : int;
  conflicts : conflict list;
  conflict_weight : int;
  destructive_pairs : int;
  destructive_weight : int;
}

type ras_report = {
  depth : int;
  call_blocks : int;
  static_bound : int option;
  overflow_possible : bool;
}

type body = Map of map_report | Stack of ras_report
type report = { structure : Structure.t; body : body }

(* Group weighted items by index and fold each over-occupied (or
   direction-opposed) index into a conflict record. *)
let build_map ~capacity ~assoc ~index items =
  let by_index = Hashtbl.create 64 in
  let items = List.filter (fun o -> o.o_weight > 0) items in
  List.iter
    (fun o ->
      let i = index o in
      Hashtbl.replace by_index i (o :: Option.value ~default:[] (Hashtbl.find_opt by_index i)))
    items;
  let indices =
    List.sort compare (Hashtbl.fold (fun i _ acc -> i :: acc) by_index [])
  in
  let conflicts = ref [] in
  List.iter
    (fun i ->
      let occupants =
        List.sort
          (fun a b ->
            match compare b.o_weight a.o_weight with
            | 0 -> compare a.o_key b.o_key
            | c -> c)
          (Hashtbl.find by_index i)
      in
      let total = List.fold_left (fun acc o -> acc + o.o_weight) 0 occupants in
      let rec top k = function
        | o :: rest when k > 0 -> o.o_weight + top (k - 1) rest
        | _ -> 0
      in
      let excess = total - top assoc occupants in
      let side b =
        List.fold_left
          (fun acc o -> if o.o_bias = Some b then acc + o.o_weight else acc)
          0 occupants
      in
      let taken_w = side true and fall_w = side false in
      let opposing = taken_w > 0 && fall_w > 0 in
      let opposing_weight = if opposing then min taken_w fall_w else 0 in
      if excess > 0 || opposing then
        conflicts :=
          { index = i; occupants; excess_weight = excess; opposing; opposing_weight }
          :: !conflicts)
    indices;
  let conflicts =
    List.sort
      (fun a b ->
        match compare b.excess_weight a.excess_weight with
        | 0 -> compare a.index b.index
        | c -> c)
      (List.rev !conflicts)
  in
  {
    capacity;
    assoc;
    items = List.length items;
    total_weight = List.fold_left (fun acc o -> acc + o.o_weight) 0 items;
    used = List.length indices;
    conflicts;
    conflict_weight = List.fold_left (fun acc c -> acc + c.excess_weight) 0 conflicts;
    destructive_pairs =
      List.fold_left (fun acc c -> if c.opposing then acc + 1 else acc) 0 conflicts;
    destructive_weight =
      List.fold_left (fun acc c -> acc + c.opposing_weight) 0 conflicts;
  }

(* Conditional sites as direction-table items: the bias is the
   profile-majority architectural direction (taken at least as often as
   not), matching what a 2-bit counter trains towards. *)
let cond_items ~bases (summary : Site.summary) =
  List.filter_map
    (fun (s : Site.t) ->
      match s.Site.kind with
      | Site.Cond _ ->
        Some
          {
            o_key = bases.(s.Site.proc) + s.Site.offset;
            o_weight = s.Site.weight;
            o_bias = Some (2 * s.Site.taken_weight >= s.Site.weight);
            o_site = Some (s.Site.proc, s.Site.block);
          }
      | _ -> None)
    summary.Site.sites

let btb_items ~bases (summary : Site.summary) =
  List.filter_map
    (fun (s : Site.t) ->
      if s.Site.taken_weight > 0 then
        Some
          {
            o_key = bases.(s.Site.proc) + s.Site.offset;
            o_weight = s.Site.taken_weight;
            o_bias = None;
            o_site = Some (s.Site.proc, s.Site.block);
          }
      else None)
    summary.Site.sites

(* Cache lines fetched by the weighted regions, with per-line weights. *)
let line_items ~bases ~insns_per_line (summary : Site.summary) =
  let by_line = Hashtbl.create 64 in
  List.iter
    (fun (r : Site.region) ->
      if r.Site.r_weight > 0 && r.Site.r_size > 0 then begin
        let addr = bases.(r.Site.r_proc) + r.Site.r_offset in
        let first = Icache.line_of ~insns_per_line ~addr in
        let last = Icache.line_of ~insns_per_line ~addr:(addr + r.Site.r_size - 1) in
        for line = first to last do
          let w = Option.value ~default:0 (Hashtbl.find_opt by_line line) in
          Hashtbl.replace by_line line (w + r.Site.r_weight)
        done
      end)
    summary.Site.regions;
  List.sort
    (fun a b -> compare a.o_key b.o_key)
    (Hashtbl.fold
       (fun line w acc ->
         { o_key = line; o_weight = w; o_bias = None; o_site = None } :: acc)
       by_line [])

(* Alpha history lines: only conditional updates write history bits, so a
   line's weight is its conditionals' execution weight; the heaviest
   conditional locates the line for diagnostics. *)
let alpha_items ~bases ~insns_per_line (summary : Site.summary) =
  let by_line = Hashtbl.create 64 in
  List.iter
    (fun (s : Site.t) ->
      match s.Site.kind with
      | Site.Cond _ when s.Site.weight > 0 ->
        let pc = bases.(s.Site.proc) + s.Site.offset in
        let line = Alpha_bits.line_no_of ~insns_per_line ~pc in
        let w, best =
          Option.value ~default:(0, None) (Hashtbl.find_opt by_line line)
        in
        let best =
          match best with
          | Some (bw, _) when bw >= s.Site.weight -> best
          | _ -> Some (s.Site.weight, (s.Site.proc, s.Site.block))
        in
        Hashtbl.replace by_line line (w + s.Site.weight, best)
      | _ -> ())
    summary.Site.sites;
  List.sort
    (fun a b -> compare a.o_key b.o_key)
    (Hashtbl.fold
       (fun line (w, best) acc ->
         {
           o_key = line;
           o_weight = w;
           o_bias = None;
           o_site = Option.map snd best;
         }
         :: acc)
       by_line [])

(* Which per-branch history register Yeh & Patt's local scheme gives the
   conditional at [pc]: the low address bits ([branch_entries] is a power
   of two). *)
let local_index ~branch_entries ~pc = pc land (branch_entries - 1)

let report_of ~bases summary structure =
  let body =
    match structure with
    | Structure.Pht_direct { entries } ->
      Map
        (build_map ~capacity:entries ~assoc:1
           ~index:(fun o -> Pht.direct_index ~entries ~pc:o.o_key)
           (cond_items ~bases summary))
    | Structure.Pht_gshare { entries; history_bits = _ } ->
      (* Zero-history projection: a heuristic view, see {!Structure}. *)
      Map
        (build_map ~capacity:entries ~assoc:1
           ~index:(fun o -> Pht.gshare_index ~entries ~history:0 ~pc:o.o_key)
           (cond_items ~bases summary))
    | Structure.Two_level_local { branch_entries } ->
      Map
        (build_map ~capacity:branch_entries ~assoc:1
           ~index:(fun o -> local_index ~branch_entries ~pc:o.o_key)
           (cond_items ~bases summary))
    | Structure.Btb { entries; assoc } ->
      Map
        (build_map ~capacity:(entries / assoc) ~assoc
           ~index:(fun o -> Btb.set_index ~entries ~assoc ~pc:o.o_key)
           (btb_items ~bases summary))
    | Structure.Icache { lines; insns_per_line; assoc } ->
      Map
        (build_map ~capacity:(lines / assoc) ~assoc
           ~index:(fun o -> Icache.set_index ~lines ~assoc ~line:o.o_key)
           (line_items ~bases ~insns_per_line summary))
    | Structure.Alpha { lines; insns_per_line } ->
      Map
        (build_map ~capacity:lines ~assoc:1
           ~index:(fun o -> Alpha_bits.line_index ~lines ~line_no:o.o_key)
           (alpha_items ~bases ~insns_per_line summary))
    | Structure.Ras { depth } ->
      let bound = summary.Site.ras_bound in
      Stack
        {
          depth;
          call_blocks = summary.Site.call_blocks;
          static_bound = bound;
          overflow_possible =
            (match bound with None -> true | Some b -> b > depth);
        }
  in
  { structure; body }

let of_summary ~suite ~bases summary =
  List.map (report_of ~bases summary) suite

let analyze ?(suite = Structure.default_suite) ~profile image =
  Ba_obs.Span.with_ "analyze" @@ fun () ->
  let summary = Site.extract ~profile image in
  of_summary ~suite ~bases:image.Ba_layout.Image.bases summary

let objective reports =
  List.fold_left
    (fun acc r ->
      match r.body with
      | Map m -> acc + m.conflict_weight + m.destructive_weight
      | Stack _ -> acc)
    0 reports

let occupant_to_json o =
  let open Ba_util.Json in
  Obj
    (( [ ("key", Int o.o_key); ("weight", Int o.o_weight) ]
     @ (match o.o_bias with
       | None -> []
       | Some b -> [ ("bias_taken", Bool b) ])
     @
     match o.o_site with
     | None -> []
     | Some (p, b) -> [ ("proc", Int p); ("block", Int b) ] ))

let conflict_to_json c =
  let open Ba_util.Json in
  Obj
    [
      ("index", Int c.index);
      ("excess_weight", Int c.excess_weight);
      ("opposing", Bool c.opposing);
      ("opposing_weight", Int c.opposing_weight);
      ("occupants", List (List.map occupant_to_json c.occupants));
    ]

let report_to_json r =
  let open Ba_util.Json in
  let common = [ ("structure", String (Structure.name r.structure)) ] in
  match r.body with
  | Map m ->
    Obj
      (common
      @ [
          ("kind", String "map");
          ("capacity", Int m.capacity);
          ("assoc", Int m.assoc);
          ("items", Int m.items);
          ("total_weight", Int m.total_weight);
          ("used", Int m.used);
          ("conflict_sets", Int (List.length m.conflicts));
          ("conflict_weight", Int m.conflict_weight);
          ("destructive_pairs", Int m.destructive_pairs);
          ("destructive_weight", Int m.destructive_weight);
          ("conflicts", List (List.map conflict_to_json m.conflicts));
        ])
  | Stack s ->
    Obj
      (common
      @ [
          ("kind", String "stack");
          ("depth", Int s.depth);
          ("call_blocks", Int s.call_blocks);
          ( "static_bound",
            match s.static_bound with None -> Null | Some b -> Int b );
          ("overflow_possible", Bool s.overflow_possible);
        ])

let to_json reports = Ba_util.Json.List (List.map report_to_json reports)

let render reports =
  let open Ba_util.Ascii_table in
  let columns =
    [
      column ~align:Left "structure";
      column "geometry";
      column "items";
      column "used";
      column "conflicts";
      column "excess-wt";
      column "opposing";
      column "opposing-wt";
      column ~align:Left "note";
    ]
  in
  let rows =
    List.map
      (fun r ->
        match r.body with
        | Map m ->
          [
            Structure.name r.structure;
            Printf.sprintf "%dx%d" m.capacity m.assoc;
            int_cell m.items;
            int_cell m.used;
            int_cell (List.length m.conflicts);
            int_cell m.conflict_weight;
            int_cell m.destructive_pairs;
            int_cell m.destructive_weight;
            (match r.structure with
            | Structure.Pht_gshare _ -> "zero-history projection"
            | _ -> "");
          ]
        | Stack s ->
          [
            Structure.name r.structure;
            Printf.sprintf "depth %d" s.depth;
            int_cell s.call_blocks;
            "-";
            "-";
            "-";
            "-";
            "-";
            (match s.static_bound with
            | None -> "unbounded (recursive call graph)"
            | Some b ->
              Printf.sprintf "static call depth %d %s depth %d" b
                (if b > s.depth then "exceeds" else "within")
                s.depth);
          ])
      reports
  in
  render ~columns ~rows
