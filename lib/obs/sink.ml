type format = Ascii | Json | Noop

let is_volatile name =
  match Catalogue.find name with
  | Some def -> def.Catalogue.volatile
  | None -> false

let unit_of name =
  match Catalogue.find name with Some def -> def.Catalogue.unit_ | None -> ""

let stable (name, _) = not (is_volatile name)

(* -- JSON ------------------------------------------------------------------- *)

let histo_json (h : Registry.hsnap) =
  let open Ba_util.Json in
  let buckets =
    List.filteri (fun i _ -> h.Registry.counts.(i) > 0)
      (Array.to_list (Array.mapi (fun i le -> (le, h.Registry.counts.(i))) h.Registry.bounds))
  in
  let overflow = h.Registry.counts.(Array.length h.Registry.counts - 1) in
  Obj
    (List.concat
       [
         [ ("count", Int h.Registry.total); ("sum", Int h.Registry.sum) ];
         (if h.Registry.total > 0 then [ ("max", Int h.Registry.max_value) ] else []);
         [
           ( "buckets",
             List
               (List.map
                  (fun (le, c) -> Obj [ ("le", Int le); ("count", Int c) ])
                  buckets) );
         ];
         (if overflow > 0 then [ ("overflow", Int overflow) ] else []);
       ])

let rec span_json (s : Registry.span) =
  let open Ba_util.Json in
  Obj
    (("name", String s.Registry.name)
    :: ("count", Int s.Registry.count)
    ::
    (match s.Registry.children with
    | [] -> []
    | cs -> [ ("children", List (List.map span_json cs)) ]))

let to_json reg =
  let open Ba_util.Json in
  let obj_of entries value = Obj (List.map (fun (n, v) -> (n, value v)) entries) in
  Obj
    [
      ("counters", obj_of (List.filter stable (Registry.counters reg)) (fun v -> Int v));
      ("gauges", obj_of (List.filter stable (Registry.gauges reg)) (fun v -> Int v));
      ( "histograms",
        obj_of (List.filter stable (Registry.histograms reg)) histo_json );
      ("spans", List (List.map span_json (Registry.spans reg)));
    ]

(* -- ASCII ------------------------------------------------------------------ *)

let scalar_table title rows =
  if rows = [] then ""
  else
    let columns =
      Ba_util.Ascii_table.[ column ~align:Left "metric"; column "value"; column ~align:Left "unit" ]
    in
    Printf.sprintf "-- %s --\n%s" title
      (Ba_util.Ascii_table.render ~columns
         ~rows:
           (List.map
              (fun (name, v) -> [ name; Ba_util.Ascii_table.int_cell v; unit_of name ])
              rows))

let histo_table rows =
  if rows = [] then ""
  else
    let columns =
      Ba_util.Ascii_table.
        [
          column ~align:Left "histogram"; column "count"; column "sum"; column "mean";
          column "max";
        ]
    in
    Printf.sprintf "-- histograms --\n%s"
      (Ba_util.Ascii_table.render ~columns
         ~rows:
           (List.map
              (fun (name, (h : Registry.hsnap)) ->
                [
                  name;
                  Ba_util.Ascii_table.int_cell h.Registry.total;
                  Ba_util.Ascii_table.int_cell h.Registry.sum;
                  (if h.Registry.total = 0 then "-"
                   else
                     Ba_util.Ascii_table.float_cell ~decimals:2
                       (float_of_int h.Registry.sum /. float_of_int h.Registry.total));
                  (if h.Registry.total = 0 then "-"
                   else Ba_util.Ascii_table.int_cell h.Registry.max_value);
                ])
              rows))

let rec span_lines ~depth (s : Registry.span) =
  Printf.sprintf "%s%s: %d (%.3fs)" (String.make (2 * depth) ' ') s.Registry.name
    s.Registry.count s.Registry.seconds
  :: List.concat_map (span_lines ~depth:(depth + 1)) s.Registry.children

let render reg =
  let sections =
    List.filter
      (fun s -> s <> "")
      [
        scalar_table "counters" (Registry.counters reg);
        scalar_table "gauges" (Registry.gauges reg);
        histo_table (Registry.histograms reg);
        (match Registry.spans reg with
        | [] -> ""
        | spans ->
          "-- spans --\n"
          ^ String.concat "\n" (List.concat_map (span_lines ~depth:0) spans)
          ^ "\n");
      ]
  in
  String.concat "\n" sections

let emit format reg =
  match format with
  | Noop -> ""
  | Json -> Ba_util.Json.to_string (to_json reg) ^ "\n"
  | Ascii -> render reg
