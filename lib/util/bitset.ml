type t = { words : int array; n : int }

let bits_per_word = 63

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { words = Array.make ((n + bits_per_word - 1) / bits_per_word + 1) 0; n }

let check t i =
  if i < 0 || i >= t.n then invalid_arg "Bitset: index out of bounds"

let mem t i =
  check t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let[@inline] unsafe_mem t i =
  Array.unsafe_get t.words (i / bits_per_word)
  land (1 lsl (i mod bits_per_word))
  <> 0

let remove t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits_per_word))

(* Branch-free SWAR popcount. The usual 64-bit magic constants
   (0x5555...5555 etc.) do not fit in a 63-bit OCaml int literal, so the
   first mask is the 63-bit truncation 0x1555...5555 — bit 62 of
   [x lsr 1] is always 0, so nothing is lost — and the final multiply
   folds the byte sums into bits 56..62 (the total is <= 63 < 128, so
   the missing 64th bit never carries). Constant-time for dense words,
   unlike the classic clear-lowest-bit loop this replaced. *)
let[@brokercheck.noalloc] popcount x =
  let x = x - ((x lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (x * 0x0101010101010101) lsr 56

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let word = ref t.words.(w) in
    let base = w * bits_per_word in
    (* Lowest-set-bit extraction: each member costs O(1) instead of the
       63-probe scan per word; the bit index is popcount of the mask
       below the isolated bit. Ascending order is preserved. *)
    while !word <> 0 do
      let low = !word land - !word in
      f (base + popcount (low - 1));
      word := !word land (!word - 1)
    done
  done
