type gc_delta = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

let measure f =
  let a = Gc.quick_stat () in
  let x = f () in
  let b = Gc.quick_stat () in
  ( x,
    {
      minor_words = b.Gc.minor_words -. a.Gc.minor_words;
      major_words = b.Gc.major_words -. a.Gc.major_words;
      promoted_words = b.Gc.promoted_words -. a.Gc.promoted_words;
      minor_collections = b.Gc.minor_collections - a.Gc.minor_collections;
      major_collections = b.Gc.major_collections - a.Gc.major_collections;
    } )
