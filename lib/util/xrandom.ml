(* The xoshiro256** state s0..s3 as four little-endian words of one
   32-byte buffer. [Bytes.get_int64_le]/[set_int64_le] read and write
   them unboxed, so a draw that [bits64] is inlined into allocates
   nothing; [int64] record fields would box on every write. *)
type t = Bytes.t

let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let st = ref (Int64.of_int seed) in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_le t (8 * i) (splitmix64_next st)
  done;
  t

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] bits64 t =
  let open Int64 in
  let s0 = Bytes.get_int64_le t 0 and s1 = Bytes.get_int64_le t 8 in
  let s2 = Bytes.get_int64_le t 16 and s3 = Bytes.get_int64_le t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  let s2 = logxor s2 tmp in
  let s3 = rotl s3 45 in
  Bytes.set_int64_le t 0 s0;
  Bytes.set_int64_le t 8 s1;
  Bytes.set_int64_le t 16 s2;
  Bytes.set_int64_le t 24 s3;
  result

let split t =
  let seed = Int64.to_int (bits64 t) in
  create (seed lxor 0x5851F42D)

(* Non-negative 62-bit int from the top bits, avoiding sign issues. *)
let[@inline] bits t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

(* Rejection sampling to avoid modulo bias: draws below [lim], a
   multiple of [bound], are uniform modulo [bound]. *)
let rec below t bound lim =
  let v = bits t in
  if v < lim then v mod bound else below t bound lim

let int t bound =
  if bound <= 0 then invalid_arg "Xrandom.int: bound must be positive";
  let mask = bound - 1 in
  if bound land mask = 0 then bits t land mask else below t bound ((max_int / bound) * bound)

let[@inline] float t x =
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
