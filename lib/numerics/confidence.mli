(** Confidence intervals for experiment means (normal approximation —
    the Figure-4 points average 100 i.i.d. trials, comfortably in CLT
    territory). *)

type interval = { lo : float; hi : float; level : float }

val of_summary : ?level:float -> Stats.summary -> interval
(** Two-sided interval for the mean at confidence [level] (default
    0.95): [mean ± z·sd/√n].  Requires at least 2 samples. *)
