(* Fixture (brokercheck: allow mli-complete): R5 no-stdout-in-lib — direct stdout writes and process exit
   from library code. *)

let report x =
  Printf.printf "x = %d\n" x;
  print_endline "done"

let fail_hard () = exit 1
