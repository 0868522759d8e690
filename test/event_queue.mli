(** A binary-heap priority queue with float priorities.

    Ties are broken by insertion order (FIFO), which makes
    discrete-event simulations deterministic when several events share a
    timestamp.

    Frozen test oracle: [Test_des] checks [Des.Event_heap]'s pop order
    against it, and [Scheduler_oracle] (the pre-rewrite MapReduce
    scheduler) runs on it.  Boxed and simple on purpose; do not
    optimise. *)

type 'a t

val create : ?initial_capacity:int -> unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> priority:float -> 'a -> unit
(** Raises [Invalid_argument] on a NaN priority. *)

val peek : 'a t -> (float * 'a) option
(** Minimum-priority element, not removed. *)

val pop : 'a t -> (float * 'a) option
(** Removes and returns the minimum-priority element. *)

val clear : 'a t -> unit

val to_sorted_list : 'a t -> (float * 'a) list
(** Non-destructive snapshot in priority order (for tests). *)
