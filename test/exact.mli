(** Brute-force optimum over the *whole* column-based class — every way
    of grouping the zones into columns, contiguous in sorted order or
    not — for small instances.

    Frozen test oracle: [Test_wave3] uses it to validate that the O(p²)
    dynamic program of [Partition.Column_partition] (which only searches
    contiguous groups of the sorted areas) is exact within the class,
    per the structure theorem of Beaumont-Boudet-Rastello-Robert. *)

val peri_sum_cost : areas:float array -> float
(** Minimum [Σ_c (k_c·w_c + 1)] over all set partitions of the areas
    into columns.  Exponential (Bell-number) search: raises
    [Invalid_argument] for more than 10 areas. *)

val peri_max_cost : areas:float array -> float
(** Same for the PERI-MAX objective
    [max_c (w_c + a_max(c)/w_c)]. *)
