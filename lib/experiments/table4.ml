module Report = Broker_report.Report
module Conn = Broker_core.Connectivity

type result = {
  alliance_size : int;
  alliance : Broker_core.Connectivity.curve;
  free : Broker_core.Connectivity.curve;
  max_inflation : float;  (** sup_l (free(l) - alliance(l)) *)
}

let compute ctx =
  let brokers = Ctx.maxsg_order ctx in
  let alliance = Ctx.curve ctx brokers in
  let free = Ctx.free_curve ctx in
  let max_inflation = ref 0.0 in
  for l = 1 to min alliance.Conn.l_max free.Conn.l_max do
    let d = Conn.value_at free l -. Conn.value_at alliance l in
    if d > !max_inflation then max_inflation := d
  done;
  {
    alliance_size = Array.length brokers;
    alliance;
    free;
    max_inflation = !max_inflation;
  }

let report ctx =
  let rep = Report.create ~name:"table4" () in
  let s =
    Report.section rep "Table 4 - path inflation: full alliance vs free path selection"
  in
  let r = compute ctx in
  let columns =
    Report.col "Routing"
    :: List.map (fun l -> Report.col (Printf.sprintf "l=%d" l)) [ 2; 3; 4; 5; 6 ]
    @ [ Report.col "saturated" ]
  in
  let t = Report.table s ~columns () in
  let row name curve =
    Report.row t
      (Report.str name
       :: List.map (fun l -> Report.pct (Conn.value_at curve l)) [ 2; 3; 4; 5; 6 ]
      @ [ Report.pct curve.Conn.saturated ])
  in
  row (Printf.sprintf "%d-alliance" r.alliance_size) r.alliance;
  row "ASesWithIXPs (free)" r.free;
  Report.metricf s ~key:"max_inflation" r.max_inflation
    "Max inflation (free - alliance) over hop counts: %.2f%% (paper: curves almost overlap).\n"
    (100.0 *. r.max_inflation);
  rep
