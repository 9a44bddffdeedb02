(* Fixture (brokercheck: allow mli-complete): R9 clean — deterministic
   explicit keys and non-randomized tables. *)
let key (x : int) = x land max_int
let t : (int, int) Hashtbl.t = Hashtbl.create 16
let u : (string, int) Hashtbl.t = Hashtbl.create ~random:false 16
