(* Text backend: renders a report exactly as the pre-IR harness printed it
   (section banners, aligned tables, prose), so the seed determinism
   guarantees carry over byte for byte. This module also owns the one
   redirectable output formatter that used to live in Ctx. *)

module Table = Broker_util.Table

let render_table tbl =
  let t =
    Table.create
      ~headers:(List.map (fun c -> c.Report.title) (Report.columns tbl))
  in
  List.iter
    (function
      | Report.Row cells ->
          Table.add_row t (List.map Report.cell_text cells)
      | Report.Rule -> Table.add_rule t)
    (Report.rows tbl);
  Table.render t

let banner title =
  let bar = String.make 72 '=' in
  Printf.sprintf "\n%s\n%s\n%s\n" bar title bar

let render_section buf s =
  Buffer.add_string buf (banner (Report.section_title s));
  List.iter
    (fun item ->
      match item with
      | Report.Note text -> Buffer.add_string buf text
      | Report.Metric { Report.display = Some d; _ } -> Buffer.add_string buf d
      | Report.Metric { Report.display = None; _ } -> ()
      | Report.Table tbl -> Buffer.add_string buf (render_table tbl)
      | Report.Series _ -> ())
    (Report.items s)

let render r =
  let buf = Buffer.create 1024 in
  List.iter (render_section buf) (Report.sections r);
  Buffer.contents buf

let pp ppf r = Format.pp_print_string ppf (render r)

(* All terminal-facing experiment text funnels through here, so library
   code never prints directly (brokercheck: no-stdout-in-lib). *)
let print r = pp Format.std_formatter r
let flush () = Format.pp_print_flush Format.std_formatter ()
