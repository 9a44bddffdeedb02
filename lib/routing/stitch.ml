type segment =
  | Ingress of int
  | Broker_hop of int * int
  | Employee_hop of int * int * int
  | Egress of int

type stitched = {
  path : int array;
  segments : segment list;
  employees : int list;
  hops : int;
}

let stitch g ~is_broker ~src ~dst =
  match
    Broker_core.Dominating.find_dominated_path_view
      (Broker_graph.View.of_graph g) ~is_broker src dst
  with
  | [||] -> None
  | arr ->
      let m = Array.length arr in
      let segments = ref [] in
      let employees = ref [] in
      let i = ref 0 in
      while !i < m - 1 do
        let u = arr.(!i) and v = arr.(!i + 1) in
        if u = src && not (is_broker u) then begin
          segments := Ingress v :: !segments;
          incr i
        end
        else if v = dst && not (is_broker v) then begin
          segments := Egress u :: !segments;
          incr i
        end
        else if is_broker u && is_broker v then begin
          segments := Broker_hop (u, v) :: !segments;
          incr i
        end
        else if is_broker u && (not (is_broker v)) && !i + 2 < m && is_broker arr.(!i + 2)
        then begin
          (* Non-broker v is dominated on both sides: a hired employee. *)
          segments := Employee_hop (u, v, arr.(!i + 2)) :: !segments;
          if not (List.mem v !employees) then employees := v :: !employees;
          i := !i + 2
        end
        else begin
          (* Mixed hop with a broker endpoint (e.g. broker → non-broker
             destination-side vertex). Record as ingress/egress-like broker
             hop. *)
          segments := Broker_hop (u, v) :: !segments;
          incr i
        end
      done;
      Some
        {
          path = arr;
          segments = List.rev !segments;
          employees = List.rev !employees;
          hops = m - 1;
        }
