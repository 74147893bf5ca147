
% BR: the browse benchmark of the Gabriel suite, reconstructed: build a
% database of symbols carrying pattern properties (seeded by a linear
% congruential generator, as in the original's randomize), then browse
% the database, matching every query pattern against every symbol's
% data and collecting hit counts. Entry point: browse(Result).

browse(Result) :-
    init(20, 7, Database),
    queries(Patterns),
    investigate(Database, Patterns, Result).

% init(N, Seed, Database): N symbols, each with a pseudo-randomly
% chosen pattern property.
init(0, _, []).
init(N, Seed, [property(sym(Seed), Data)|Rest]) :-
    N > 0,
    Index is Seed mod 4,
    base_pattern(Index, Data),
    Seed1 is (Seed * 17 + 7) mod 251,
    N1 is N - 1,
    init(N1, Seed1, Rest).

base_pattern(0, [a, b, c, d]).
base_pattern(1, [a, [b, c], d]).
base_pattern(2, [d, d, a]).
base_pattern(3, [a, [b, c], [b, c], d]).

% The query patterns: star matches any (possibly empty) segment, q
% matches any single symbol, a sublist recurses.
queries([[a, star, d], [star], [a, q, q, d], [a, [b, star], d]]).

% investigate(Database, Patterns, Hits): for every symbol, count how
% many of the patterns match its data.
investigate([], _, []).
investigate([property(Name, Data)|Symbols], Patterns,
            [hits(Name, N)|Rest]) :-
    count_hits(Patterns, Data, 0, N),
    investigate(Symbols, Patterns, Rest).

count_hits([], _, N, N).
count_hits([P|Ps], Data, SoFar, N) :-
    try_match(P, Data, SoFar, Next),
    count_hits(Ps, Data, Next, N).

try_match(Pattern, Data, SoFar, Next) :-
    match(Pattern, Data),
    Next is SoFar + 1.
try_match(_, _, SoFar, SoFar).

% The Gabriel-style matcher: star consumes any prefix of the subject,
% q consumes exactly one element, nested lists match recursively, and
% anything else must be an identical atom.
match([], []).
match([star|Ps], Subject) :-
    split(Subject, _, Rest),
    match(Ps, Rest).
match([q|Ps], [_|Ss]) :-
    match(Ps, Ss).
match([P|Ps], [S|Ss]) :-
    is_list(P),
    match(P, S),
    match(Ps, Ss).
match([P|Ps], [P|Ss]) :-
    atom(P),
    match(Ps, Ss).

% split(List, Front, Back).
split(List, [], List).
split([X|Xs], [X|Front], Back) :-
    split(Xs, Front, Back).
