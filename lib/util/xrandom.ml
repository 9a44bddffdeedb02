type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let st = ref (Int64.of_int seed) in
  let s0 = splitmix64_next st in
  let s1 = splitmix64_next st in
  let s2 = splitmix64_next st in
  let s3 = splitmix64_next st in
  { s0; s1; s2; s3 }

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let bits64 t =
  let open Int64 in
  let result = mul (rotl (mul t.s1 5L) 7) 9L in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t =
  let seed = Int64.to_int (bits64 t) in
  create (seed lxor 0x5851F42D)

(* Non-negative 62-bit int from the top bits, avoiding sign issues. *)
let bits t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Xrandom.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let mask = bound - 1 in
  if bound land mask = 0 then bits t land mask
  else
    let lim = (max_int / bound) * bound in
    let rec loop () =
      let v = bits t in
      if v < lim then v mod bound else loop ()
    in
    loop ()

let float t x =
  (* 53 uniform mantissa bits. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  x *. (float_of_int v /. 9007199254740992.0)

let bernoulli t p = float t 1.0 < p

let exponential t lambda =
  if lambda <= 0.0 then invalid_arg "Xrandom.exponential: lambda must be positive";
  let u = 1.0 -. float t 1.0 in
  -.log u /. lambda

let pareto t ~alpha ~x_min =
  if alpha <= 0.0 || x_min <= 0.0 then invalid_arg "Xrandom.pareto";
  let u = 1.0 -. float t 1.0 in
  x_min /. (u ** (1.0 /. alpha))

let geometric t p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Xrandom.geometric";
  if p >= 1.0 then 0
  else
    let u = 1.0 -. float t 1.0 in
    int_of_float (Float.floor (log u /. log (1.0 -. p)))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a
