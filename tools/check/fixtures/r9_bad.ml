(* Fixture (brokercheck: allow mli-complete): R9 no-unsafe-obj — Obj casts
   (banned everywhere) and polymorphic-hash hazards (library mode). *)
let f (x : int) : string = Obj.magic x
let g x = Obj.repr x
let h x = Hashtbl.hash x
let t : (int, int) Hashtbl.t = Hashtbl.create ~random:true 16
let () = Hashtbl.randomize ()
