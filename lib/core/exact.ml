module G = Broker_graph.Graph

let check_size g =
  if G.n g > 25 then invalid_arg "Exact: graph too large for enumeration"

(* Closed neighbourhoods as bitmasks. *)
let neighbourhood_masks g =
  Array.init (G.n g) (fun v ->
      G.fold_neighbors g v (fun acc w -> acc lor (1 lsl w)) (1 lsl v))

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

let members_of_mask n mask =
  let acc = ref [] in
  for v = n - 1 downto 0 do
    if mask land (1 lsl v) <> 0 then acc := v :: !acc
  done;
  Array.of_list !acc

(* Enumerate all size-<=k subsets by recursion with a simple upper-bound
   prune: the best remaining coverage adds at most the sum of the largest
   remaining closed neighbourhoods. *)
let enumerate g ~k ~accept =
  check_size g;
  let n = G.n g in
  let nbr = neighbourhood_masks g in
  let best_val = ref (-1) in
  let best_set = ref 0 in
  let nbr_sizes = Array.map popcount nbr in
  (* max closed-neighbourhood size from index i on *)
  let suffix_max = Array.make (n + 1) 0 in
  for i = n - 1 downto 0 do
    suffix_max.(i) <- max nbr_sizes.(i) suffix_max.(i + 1)
  done;
  let rec go start chosen_mask covered budget =
    let value = popcount covered in
    if value > !best_val && accept chosen_mask then begin
      best_val := value;
      best_set := chosen_mask
    end;
    (* Prune when even the most optimistic extension cannot beat the best
       accepted set found so far. *)
    if budget > 0 && start < n && value + (budget * suffix_max.(start)) > !best_val
    then
      for v = start to n - 1 do
        go (v + 1) (chosen_mask lor (1 lsl v)) (covered lor nbr.(v)) (budget - 1)
      done
  in
  go 0 0 0 (min k n);
  (members_of_mask n !best_set, max !best_val 0)

let mcb_opt g ~k = enumerate g ~k ~accept:(fun _ -> true)

let mcbg_opt g ~k =
  let n = G.n g in
  enumerate g ~k ~accept:(fun mask ->
      Mcbg.guarantees_dominating_paths g (members_of_mask n mask))
