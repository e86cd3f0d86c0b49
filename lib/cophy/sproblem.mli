(** The structured form of the CoPhy BIP (Theorem 1): per block, per
    INUM template, the internal cost beta and per-slot admissible
    (candidate, gamma) choices — losslessly pruned (a slot choice is
    dropped only when its gamma is infinite or no better than the
    no-index gamma; the candidate's z variable always survives).  A block
    is one distinct cost structure: the statements that share it carry
    their summed weight.

    Both solver paths consume this structure: {!to_lp} materializes the
    explicit BIP for simplex + branch-and-bound, while {!Decomposition}
    exploits the block structure directly. *)

type slot_choice = { cand : int; gamma : float }
(** [cand = -1] is the no-index choice. *)

type template = {
  beta : float;
  choices : slot_choice array array;  (** per slot; no-index entry first *)
}

(** The statements with one cost structure (equal [templates] and
    [cands_used]): any selection costs each of them the same. *)
type block = {
  qids : int array;
      (** member statement ids, in workload order; the first keys the
          warm-start multipliers *)
  weight : float;  (** summed f_q of the members *)
  templates : template array;
  cands_used : int array;  (** candidate positions in this block, sorted *)
}

type t = {
  schema : Catalog.Schema.t;
  candidates : Storage.Index.t array;
  sizes : float array;  (** bytes *)
  ucost : float array;  (** weighted update-maintenance cost per candidate *)
  fixed : float;  (** weighted base-update costs (c_q sums) *)
  probe_regret : float;
      (** certified INUM probe regret at build time: the objective
          surface encoded by [blocks] sits above the exhaustive-probing
          surface by at most this much, at any selection (zero when the
          caches were built with an unlimited probe budget, or fully
          refined) *)
  blocks : block array;
  cand_blocks : int array array;  (** candidate -> referencing blocks *)
}

val num_candidates : t -> int
val num_blocks : t -> int

(** Number of (y, x, z) variables of the materialized BIP — the paper's
    measure of compactness.  It grows with the number of distinct cost
    structures, not with the number of statements. *)
val variable_count : t -> int

(** Build from an INUM workload cache and a candidate set, one block per
    distinct cost structure: statements sharing an INUM cache share one
    block body, and equal bodies merge into their first member with the
    summed weight (summed in statement order).  Every selection's
    objective equals the per-statement sum up to float re-association.
    [prune = false] disables the lossless slot dominance pruning
    (ablation only). *)
val build :
  ?prune:bool ->
  Optimizer.Whatif.env ->
  Inum.workload_cache ->
  Storage.Index.t array ->
  t

(** Query-cost part of one block given a selection. *)
val block_cost_z : block -> bool array -> float

(** Full objective of a selection (query costs + maintenance + fixed).
    [jobs] fans the per-block cost evaluations over the domain pool; the
    reduction order is fixed, so the value is identical at every job
    count (default [1] = fully sequential). *)
val eval : ?jobs:int -> t -> bool array -> float

(** Total size in bytes of the selected candidates. *)
val total_size : t -> bool array -> float

val config_of : t -> bool array -> Storage.Config.t
val z_of_config : t -> Storage.Config.t -> bool array

type lp_vars = {
  z_var : int array;
  y_var : (int * int, int) Hashtbl.t;
  x_var : (int * int * int * int, int) Hashtbl.t;
}

(** Materialize the BIP of Theorem 1.  Linking rows are aggregated per
    (block, candidate) — valid by [sum_k y = 1] and tighter than
    per-variable links.  [budget] adds the storage row; [z_rows] the
    constraint-language rows; [block_caps] per-statement cost caps, each
    a [cost_cap_<id>] row on the block whose [qids] hold the id. *)
val to_lp :
  ?budget:float ->
  ?z_rows:Constr.z_row list ->
  ?block_caps:(int * float) list ->
  ?naive_links:bool ->
  t ->
  Lp.Problem.t * lp_vars

(** Read the selection out of a BIP solution vector. *)
val z_of_lp_solution : t -> lp_vars -> float array -> bool array

(** [lp_point_of_z t p vars z] — lift a selection to a full BIP point
    (the per-block template / slot assignment the minimum is attained
    at), for warm-starting {!Lp.Branch_bound} with a prior incumbent.
    Structural rows hold by construction; budget and extra z rows hold
    iff [z] satisfies them. *)
val lp_point_of_z : t -> Lp.Problem.t -> lp_vars -> bool array -> float array
