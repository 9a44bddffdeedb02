type 'a t = {
  mutable times : float array;
  mutable seqs : int array;  (* insertion sequence: stable tie-break *)
  mutable data : 'a array;
  mutable size : int;
  mutable next_seq : int;
  mutable max_size : int;  (* high-water mark since creation/clear *)
}

let create () =
  { times = [||]; seqs = [||]; data = [||]; size = 0; next_seq = 0; max_size = 0 }

let before t i j =
  t.times.(i) < t.times.(j)
  || (t.times.(i) = t.times.(j) && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let tm = t.times.(i) and sq = t.seqs.(i) and d = t.data.(i) in
  t.times.(i) <- t.times.(j);
  t.seqs.(i) <- t.seqs.(j);
  t.data.(i) <- t.data.(j);
  t.times.(j) <- tm;
  t.seqs.(j) <- sq;
  t.data.(j) <- d

let rec sift_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if before t i p then begin
      swap t i p;
      sift_up t p
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < t.size && before t l !best then best := l;
  if r < t.size && before t r !best then best := r;
  if !best <> i then begin
    swap t i !best;
    sift_down t !best
  end

let grow t x =
  let cap = max 16 (2 * Array.length t.times) in
  let times = Array.make cap 0.0 in
  let seqs = Array.make cap 0 in
  let data = Array.make cap x in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.data 0 data 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.data <- data

let add t ~time x =
  if t.size = Array.length t.times then grow t x;
  t.times.(t.size) <- time;
  t.seqs.(t.size) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  if t.size > t.max_size then t.max_size <- t.size;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let res = (t.times.(0), t.data.(0)) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.times.(0) <- t.times.(t.size);
      t.seqs.(0) <- t.seqs.(t.size);
      t.data.(0) <- t.data.(t.size);
      (* Alias the vacated slot to the new root so it never retains the
         payload that just moved down: a fully drained queue would otherwise
         keep every popped element reachable through the backing array. *)
      t.data.(t.size) <- t.data.(0);
      sift_down t 0
    end;
    Some res
  end

let peek_time t = if t.size = 0 then None else Some t.times.(0)
let max_length t = t.max_size

let clear t =
  t.times <- [||];
  t.seqs <- [||];
  t.data <- [||];
  t.size <- 0;
  t.next_seq <- 0;
  t.max_size <- 0
