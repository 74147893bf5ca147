
% DS: disjunctive scheduling by generate and test. Tasks with fixed
% durations are given start times from a discrete horizon; precedence
% constraints and the disjunctive (no-overlap) constraints on the
% shared resource are then checked, and the makespan is computed.
% Entry point: schedule(Schedule, End).

schedule(Schedule, End) :-
    tasks(Tasks),
    horizon(Horizon),
    assign(Tasks, Horizon, Schedule),
    precedences(Before),
    check_precedences(Before, Schedule),
    disjunctive(Schedule),
    makespan(Schedule, 0, End).

% The instance: five tasks on one machine.
tasks([task(a, 4), task(b, 3), task(c, 5), task(d, 2), task(e, 4)]).

horizon(16).

% a before c, b before d: released pairs.
precedences([before(a, c), before(b, d)]).

% assign(Tasks, Horizon, Schedule): pick a start time for every task.
assign([], _, []).
assign([task(Name, Duration)|Tasks], Horizon,
       [start(Name, Start, Duration)|Rest]) :-
    gen_time(0, Horizon, Start),
    Finish is Start + Duration,
    Finish =< Horizon,
    assign(Tasks, Horizon, Rest).

gen_time(Low, _, Low).
gen_time(Low, High, Time) :-
    Low < High,
    Low1 is Low + 1,
    gen_time(Low1, High, Time).

% check_precedences(Pairs, Schedule).
check_precedences([], _).
check_precedences([before(A, B)|Pairs], Schedule) :-
    lookup(A, Schedule, StartA, DurationA),
    lookup(B, Schedule, StartB, _),
    EndA is StartA + DurationA,
    EndA =< StartB,
    check_precedences(Pairs, Schedule).

lookup(Name, [start(Name, Start, Duration)|_], Start, Duration).
lookup(Name, [_|Rest], Start, Duration) :-
    lookup(Name, Rest, Start, Duration).

% disjunctive(Schedule): every pair of tasks is ordered one way or the
% other on the single machine — the disjunctive choice.
disjunctive([]).
disjunctive([Task|Tasks]) :-
    no_overlap(Task, Tasks),
    disjunctive(Tasks).

no_overlap(_, []).
no_overlap(start(Name, Start, Duration),
           [start(Other, OtherStart, OtherDuration)|Rest]) :-
    ordered(Start, Duration, OtherStart, OtherDuration),
    no_overlap(start(Name, Start, Duration), Rest).

% ordered(S1, D1, S2, D2): task one ends before task two starts, or
% task two ends before task one starts.
ordered(S1, D1, S2, _) :-
    E1 is S1 + D1,
    E1 =< S2.
ordered(S1, _, S2, D2) :-
    E2 is S2 + D2,
    E2 =< S1.

% makespan(Schedule, SoFar, End): latest finish time.
makespan([], End, End).
makespan([start(_, Start, Duration)|Rest], SoFar, End) :-
    Finish is Start + Duration,
    max_of(SoFar, Finish, Next),
    makespan(Rest, Next, End).

max_of(X, Y, X) :- X >= Y.
max_of(X, Y, Y) :- X < Y.
