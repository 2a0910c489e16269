open Ba_util

let fc = Ascii_table.float_cell
let col = Ascii_table.column
let lcol name = Ascii_table.column ~align:Ascii_table.Left name

let table1 () =
  let t = Ba_core.Cost_model.default_table in
  let row name cycles note = [ name; fc ~decimals:0 cycles; note ] in
  Ascii_table.render
    ~columns:[ lcol "Branch"; col "Cycles"; lcol "Components" ]
    ~rows:
      [
        row "Unconditional branch" (t.instruction +. t.misfetch) "instruction + misfetch";
        row "Correctly predicted fall-through" t.instruction "instruction";
        row "Correctly predicted taken" (t.instruction +. t.misfetch)
          "instruction + misfetch";
        row "Mispredicted" (t.instruction +. t.mispredict) "instruction + mispredict";
      ]

let grouped_with_averages ~columns ~row ~avg evals =
  let groups =
    List.map
      (fun (label, es) ->
        let rows = List.map row es in
        (label, rows @ [ avg label es ]))
      (Harness.by_class (fun (e : Harness.eval) -> e.Harness.workload) evals)
  in
  Ascii_table.render_grouped ~columns ~groups

let mean f es = Stats.mean (List.map f es)

(* -- Table 2 ---------------------------------------------------------------- *)

let table2 evals =
  let columns =
    [
      lcol "Program"; col "Insns Traced"; col "%Breaks"; col "Q-50"; col "Q-90";
      col "Q-99"; col "Q-100"; col "Static"; col "%Taken"; col "%CBr"; col "%IJ";
      col "%Br"; col "%Call"; col "%Ret";
    ]
  in
  let row (e : Harness.eval) =
    let s = e.Harness.stats in
    [
      e.Harness.workload.Ba_workloads.Spec.name;
      Ascii_table.int_cell s.Ba_exec.Trace_stats.insns;
      fc ~decimals:1 s.pct_breaks;
      string_of_int s.q50;
      string_of_int s.q90;
      string_of_int s.q99;
      string_of_int s.q100;
      string_of_int s.static_cond_sites;
      fc ~decimals:1 s.pct_taken;
      fc ~decimals:1 s.pct_cbr;
      fc ~decimals:1 s.pct_ij;
      fc ~decimals:1 s.pct_br;
      fc ~decimals:1 s.pct_call;
      fc ~decimals:1 s.pct_ret;
    ]
  in
  let avg label es =
    let m f = fc ~decimals:1 (mean f es) in
    [
      label ^ " Avg"; ""; m (fun e -> e.Harness.stats.Ba_exec.Trace_stats.pct_breaks);
      ""; ""; ""; ""; "";
      m (fun e -> e.Harness.stats.Ba_exec.Trace_stats.pct_taken);
      m (fun e -> e.Harness.stats.Ba_exec.Trace_stats.pct_cbr);
      m (fun e -> e.Harness.stats.Ba_exec.Trace_stats.pct_ij);
      m (fun e -> e.Harness.stats.Ba_exec.Trace_stats.pct_br);
      m (fun e -> e.Harness.stats.Ba_exec.Trace_stats.pct_call);
      m (fun e -> e.Harness.stats.Ba_exec.Trace_stats.pct_ret);
    ]
  in
  grouped_with_averages ~columns ~row ~avg evals

(* -- Table 3 ---------------------------------------------------------------- *)

let table3 evals =
  let columns =
    [
      lcol "Program";
      (* relative CPI *)
      col "FT:Orig"; col "FT:Greedy"; col "FT:ExtTsp"; col "FT:Try15";
      col "FT:Anneal";
      col "BTFNT:Orig"; col "BTFNT:Greedy"; col "BTFNT:ExtTsp";
      col "BTFNT:Try15"; col "BTFNT:Anneal";
      col "LIKELY:Orig"; col "LIKELY:Greedy"; col "LIKELY:ExtTsp";
      col "LIKELY:Try15"; col "LIKELY:Anneal";
      (* % fall-through conditionals *)
      col "%FT:Orig"; col "%FT:Greedy"; col "%FT:T15@FT"; col "%FT:T15@BTFNT";
      col "%FT:T15@LIKELY";
    ]
  in
  let row (e : Harness.eval) =
    [
      e.Harness.workload.Ba_workloads.Spec.name;
      fc e.Harness.orig.Harness.fallthrough;
      fc e.Harness.greedy.Harness.fallthrough;
      fc e.Harness.exttsp.Harness.fallthrough;
      fc e.Harness.try15.Harness.fallthrough;
      fc e.Harness.anneal.Harness.fallthrough;
      fc e.Harness.orig.Harness.btfnt;
      fc e.Harness.greedy.Harness.btfnt;
      fc e.Harness.exttsp.Harness.btfnt;
      fc e.Harness.try15.Harness.btfnt;
      fc e.Harness.anneal.Harness.btfnt;
      fc e.Harness.orig.Harness.likely;
      fc e.Harness.greedy.Harness.likely;
      fc e.Harness.exttsp.Harness.likely;
      fc e.Harness.try15.Harness.likely;
      fc e.Harness.anneal.Harness.likely;
      fc ~decimals:1 e.Harness.pct_ft_orig;
      fc ~decimals:1 e.Harness.pct_ft_greedy;
      fc ~decimals:1 e.Harness.pct_ft_try15_ft;
      fc ~decimals:1 e.Harness.pct_ft_try15_btfnt;
      fc ~decimals:1 e.Harness.pct_ft_try15_likely;
    ]
  in
  let avg label es =
    let m f = fc (mean f es) in
    let mp f = fc ~decimals:1 (mean f es) in
    [
      label ^ " Avg";
      m (fun e -> e.Harness.orig.Harness.fallthrough);
      m (fun e -> e.Harness.greedy.Harness.fallthrough);
      m (fun e -> e.Harness.exttsp.Harness.fallthrough);
      m (fun e -> e.Harness.try15.Harness.fallthrough);
      m (fun e -> e.Harness.anneal.Harness.fallthrough);
      m (fun e -> e.Harness.orig.Harness.btfnt);
      m (fun e -> e.Harness.greedy.Harness.btfnt);
      m (fun e -> e.Harness.exttsp.Harness.btfnt);
      m (fun e -> e.Harness.try15.Harness.btfnt);
      m (fun e -> e.Harness.anneal.Harness.btfnt);
      m (fun e -> e.Harness.orig.Harness.likely);
      m (fun e -> e.Harness.greedy.Harness.likely);
      m (fun e -> e.Harness.exttsp.Harness.likely);
      m (fun e -> e.Harness.try15.Harness.likely);
      m (fun e -> e.Harness.anneal.Harness.likely);
      mp (fun e -> e.Harness.pct_ft_orig);
      mp (fun e -> e.Harness.pct_ft_greedy);
      mp (fun e -> e.Harness.pct_ft_try15_ft);
      mp (fun e -> e.Harness.pct_ft_try15_btfnt);
      mp (fun e -> e.Harness.pct_ft_try15_likely);
    ]
  in
  grouped_with_averages ~columns ~row ~avg evals

(* -- Table 4 ---------------------------------------------------------------- *)

let table4 evals =
  let columns =
    [
      lcol "Program";
      col "PHT:Orig"; col "PHT:Greedy"; col "PHT:ExtTsp"; col "PHT:Try15";
      col "PHT:Anneal";
      col "gshare:Orig"; col "gshare:Greedy"; col "gshare:ExtTsp";
      col "gshare:Try15"; col "gshare:Anneal";
      col "BTB64:Orig"; col "BTB64:Greedy"; col "BTB64:ExtTsp";
      col "BTB64:Try15"; col "BTB64:Anneal";
      col "BTB256:Orig"; col "BTB256:Greedy"; col "BTB256:ExtTsp";
      col "BTB256:Try15"; col "BTB256:Anneal";
    ]
  in
  let cells (e : Harness.eval) f =
    [
      fc (f e.Harness.orig); fc (f e.Harness.greedy); fc (f e.Harness.exttsp);
      fc (f e.Harness.try15); fc (f e.Harness.anneal);
    ]
  in
  let row (e : Harness.eval) =
    (e.Harness.workload.Ba_workloads.Spec.name :: cells e (fun c -> c.Harness.pht_direct))
    @ cells e (fun c -> c.Harness.gshare)
    @ cells e (fun c -> c.Harness.btb64)
    @ cells e (fun c -> c.Harness.btb256)
  in
  let avg label es =
    let m sel f = fc (mean (fun e -> f (sel e)) es) in
    let trio f =
      [
        m (fun e -> e.Harness.orig) f;
        m (fun e -> e.Harness.greedy) f;
        m (fun e -> e.Harness.exttsp) f;
        m (fun e -> e.Harness.try15) f;
        m (fun e -> e.Harness.anneal) f;
      ]
    in
    ((label ^ " Avg") :: trio (fun c -> c.Harness.pht_direct))
    @ trio (fun c -> c.Harness.gshare)
    @ trio (fun c -> c.Harness.btb64)
    @ trio (fun c -> c.Harness.btb256)
  in
  grouped_with_averages ~columns ~row ~avg evals

(* -- Figure 4 ---------------------------------------------------------------- *)

let fig4 evals =
  let columns =
    [ lcol "Program"; col "Original"; col "Pettis&Hansen"; col "Try15"; col "Try15 gain%" ]
  in
  let rows =
    List.filter_map
      (fun (e : Harness.eval) ->
        match e.Harness.alpha with
        | Some (o, g, t) ->
          Some
            [
              e.Harness.workload.Ba_workloads.Spec.name;
              fc o; fc g; fc t;
              fc ~decimals:1 (100.0 *. (1.0 -. t));
            ]
        | None -> None)
      evals
  in
  Ascii_table.render ~columns ~rows
