(* A binary min-heap over (time, seq) in three parallel arrays. Both
   sifts move a hole instead of swapping: the element being placed stays
   in locals, each step writes one parent or child into the hole, and the
   element is written once, at its final slot. *)
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

let length t = t.size
let max_length t = t.max_size

(* Slot [i] is served before an element at [time], [seq]. (time, seq) is
   a total order: times are never NaN and sequence numbers are unique. *)
let[@inline] earlier t i time seq =
  let ti = t.times.(i) in
  ti < time || (ti = time && t.seqs.(i) < seq)

(* Slot [i] is served before slot [j]. *)
let[@inline] before t i j = earlier t i t.times.(j) t.seqs.(j)

(* Copy slot [src] into the hole at [dst]. *)
let[@inline] move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.data.(dst) <- t.data.(src)

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
  if Float.is_nan time then invalid_arg "Event_queue.add: time is NaN";
  if t.size = Array.length t.times then grow t x;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (* The new sequence number is the largest, so a parent at the same
     time stays above it. *)
  let hole = ref t.size in
  let continue = ref true in
  while !continue && !hole > 0 do
    let p = (!hole - 1) / 2 in
    if earlier t p time seq then continue := false
    else begin
      move t ~src:p ~dst:!hole;
      hole := p
    end
  done;
  t.times.(!hole) <- time;
  t.seqs.(!hole) <- seq;
  t.data.(!hole) <- x;
  t.size <- t.size + 1;
  if t.size > t.max_size then t.max_size <- t.size

let[@inline] min_time t =
  if t.size = 0 then invalid_arg "Event_queue.min_time: empty queue";
  t.times.(0)

let[@brokercheck.noalloc] take t =
  if t.size = 0 then invalid_arg "Event_queue.take: empty queue";
  let top = t.data.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    (* Sift the last element down from the root. *)
    let time = t.times.(last) and seq = t.seqs.(last) and x = t.data.(last) in
    let hole = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !hole) + 1 in
      if l >= last then continue := false
      else begin
        let r = l + 1 in
        let c = if r < last && before t r l then r else l in
        if earlier t c time seq then begin
          move t ~src:c ~dst:!hole;
          hole := c
        end
        else continue := false
      end
    done;
    t.times.(!hole) <- time;
    t.seqs.(!hole) <- seq;
    t.data.(!hole) <- x;
    (* Alias the vacated slot to an element still queued so it never
       retains the payload that just moved: a fully drained queue would
       otherwise keep every popped element reachable through the
       backing array. *)
    t.data.(last) <- x
  end;
  top

let clear t =
  t.times <- [||];
  t.seqs <- [||];
  t.data <- [||];
  t.size <- 0;
  t.next_seq <- 0;
  t.max_size <- 0
