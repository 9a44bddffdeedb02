type align = Left | Right

type line = Row of string list | Rule

type t = { headers : string list; mutable lines : line list }

let create ~headers = { headers; lines = [] }

let add_row t row =
  if List.length row <> List.length t.headers then
    invalid_arg "Table.add_row: arity mismatch";
  t.lines <- Row row :: t.lines

let add_rule t = t.lines <- Rule :: t.lines

let looks_numeric s =
  s <> ""
  && String.for_all
       (fun c ->
         (c >= '0' && c <= '9')
         || c = '.' || c = '-' || c = '+' || c = '%' || c = 'e' || c = ','
         || c = 'x')
       s

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else begin
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  end

let render t =
  let lines = List.rev t.lines in
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri
      (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
      row
  in
  measure t.headers;
  List.iter (function Row r -> measure r | Rule -> ()) lines;
  (* A column is right-aligned when every body cell looks numeric. One
     pass over the rows instead of List.nth per (row, column) pair, which
     was quadratic in the column count. *)
  let numeric = Array.make ncols true in
  List.iter
    (function
      | Rule -> ()
      | Row r ->
          List.iteri
            (fun i cell ->
              if not (looks_numeric cell || cell = "") then
                numeric.(i) <- false)
            r)
    lines;
  let aligns =
    Array.init ncols (fun i ->
        if numeric.(i) && lines <> [] then Right else Left)
  in
  let buf = Buffer.create 256 in
  let emit_row row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad aligns.(i) widths.(i) cell))
      row;
    Buffer.add_char buf '\n'
  in
  let total_width =
    Array.fold_left ( + ) 0 widths + (2 * (ncols - 1))
  in
  let rule () = Buffer.add_string buf (String.make total_width '-' ^ "\n") in
  emit_row t.headers;
  rule ();
  List.iter (function Row r -> emit_row r | Rule -> rule ()) lines;
  Buffer.contents buf
