(** Scalar optimization routines for the economic model (Section 7): the
    Stackelberg inner/outer stages and the Nash bargaining objective maximize
    continuous concave functions over intervals. *)

val golden_section_max : ?tol:float -> (float -> float) -> lo:float -> hi:float -> float * float
(** [golden_section_max f ~lo ~hi] returns the maximizing pair (x, f x) of a unimodal
    [f] over [\[lo, hi\]]. [tol] is the bracket width at termination
    (default [1e-9]); the search stops after 200 iterations regardless.
    @raise Invalid_argument when [hi < lo]. *)

val grid_max : (float -> float) -> lo:float -> hi:float -> steps:int -> float * float [@@brokercheck.test_only]
(** Coarse grid search; robust against non-unimodal objectives, typically
    followed by [golden_section_max] on the winning cell. *)

val grid_then_golden : ?steps:int -> ?tol:float -> (float -> float) -> lo:float -> hi:float -> float * float
(** Grid search to localize the best cell, then golden-section refinement
    within that cell. Handles objectives that are only piecewise unimodal
    (the Stackelberg outer problem). *)
